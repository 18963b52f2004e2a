#include <gtest/gtest.h>

#include "tbf/trace/generators.h"
#include "tbf/trace/trace.h"

namespace tbf::trace {
namespace {

net::PacketPool& TestPool() {
  static net::PacketPool pool;
  return pool;
}

TraceRecord Record(TimeNs t, NodeId node, int bytes, phy::WifiRate rate,
                   bool success = true) {
  TraceRecord r;
  r.time = t;
  r.node = node;
  r.bytes = bytes;
  r.rate = rate;
  r.success = success;
  return r;
}

TEST(RateByteFractionsTest, ComputesFractions) {
  TraceLog log;
  log.Add(Record(0, 1, 3000, phy::WifiRate::k11Mbps));
  log.Add(Record(1, 2, 1000, phy::WifiRate::k1Mbps));
  const auto fractions = RateByteFractions(log);
  EXPECT_NEAR(fractions.at(phy::WifiRate::k11Mbps), 0.75, 1e-9);
  EXPECT_NEAR(fractions.at(phy::WifiRate::k1Mbps), 0.25, 1e-9);
}

TEST(RateByteFractionsTest, EmptyLog) {
  TraceLog log;
  EXPECT_TRUE(RateByteFractions(log).empty());
}

TEST(BusyIntervalsTest, ThresholdFilters) {
  TraceLog log;
  // Window 0: 1 MB (8 Mbps) - busy. Window 1: 100 KB (0.8 Mbps) - not busy.
  for (int i = 0; i < 10; ++i) {
    log.Add(Record(Ms(i * 50), 1, 100'000, phy::WifiRate::k11Mbps));
  }
  log.Add(Record(Sec(1) + Ms(10), 1, 100'000, phy::WifiRate::k11Mbps));
  const auto busy = FindBusyIntervals(log, Sec(1), 4e6);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(busy[0].start, 0);
  EXPECT_EQ(busy[0].total_bytes, 1'000'000);
}

TEST(BusyIntervalsTest, HeaviestUserShare) {
  TraceLog log;
  log.Add(Record(Ms(1), 1, 700'000, phy::WifiRate::k11Mbps));
  log.Add(Record(Ms(2), 2, 300'000, phy::WifiRate::k11Mbps));
  const auto busy = FindBusyIntervals(log, Sec(1), 4e6);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(busy[0].heaviest_user, 1);
  EXPECT_NEAR(busy[0].heaviest_share, 0.7, 1e-9);
  EXPECT_EQ(busy[0].distinct_users, 2);
}

TEST(BusyIntervalsTest, FailedFramesDoNotCountTowardGoodput) {
  TraceLog log;
  log.Add(Record(Ms(1), 1, 700'000, phy::WifiRate::k11Mbps, /*success=*/false));
  const auto busy = FindBusyIntervals(log, Sec(1), 4e6);
  EXPECT_TRUE(busy.empty());
}

TEST(HeaviestUserSummaryTest, SoloSaturationDetection) {
  std::vector<BusyInterval> intervals(4);
  intervals[0].heaviest_share = 0.95;  // Solo.
  intervals[1].heaviest_share = 0.60;
  intervals[2].heaviest_share = 0.55;
  intervals[3].heaviest_share = 0.50;
  for (auto& bi : intervals) {
    bi.distinct_users = 3;
  }
  const auto s = SummarizeHeaviestUser(intervals);
  EXPECT_EQ(s.busy_intervals, 4);
  EXPECT_NEAR(s.solo_saturation_fraction, 0.25, 1e-9);
  EXPECT_NEAR(s.mean_heaviest_share, 0.65, 1e-9);
}

TEST(WorkshopGeneratorTest, MatchesTargetMixture) {
  sim::Rng rng(11);
  WorkshopConfig config = Ws2Config();
  config.duration = Sec(20 * 60);  // Shorter run for the test.
  const TraceLog log = GenerateWorkshopTrace(config, rng);
  ASSERT_GT(log.size(), 1000u);
  const auto fractions = RateByteFractions(log);
  // The generator should land within a few points of its target mixture.
  EXPECT_NEAR(fractions.at(phy::WifiRate::k11Mbps), 0.62, 0.12);
  double below_11 = 0.0;
  for (const auto& [rate, f] : fractions) {
    if (rate != phy::WifiRate::k11Mbps) {
      below_11 += f;
    }
  }
  EXPECT_GT(below_11, 0.25);  // The paper's WS-2 claim: >30% below 11 Mbps (with slack).
}

TEST(WorkshopGeneratorTest, SessionsDiffer) {
  sim::Rng rng(5);
  WorkshopConfig ws1 = Ws1Config();
  WorkshopConfig ws2 = Ws2Config();
  ws1.duration = ws2.duration = Sec(15 * 60);
  const auto f1 = RateByteFractions(GenerateWorkshopTrace(ws1, rng));
  const auto f2 = RateByteFractions(GenerateWorkshopTrace(ws2, rng));
  EXPECT_GT(f1.at(phy::WifiRate::k11Mbps), f2.at(phy::WifiRate::k11Mbps));
}

TEST(ResidenceGeneratorTest, ProducesBusyIntervalsWithSharedChannel) {
  sim::Rng rng(3);
  ResidenceConfig config;
  config.duration = Sec(30 * 60);
  const TraceLog log = GenerateResidenceTrace(config, rng);
  const auto busy = FindBusyIntervals(log, Sec(1), 4e6);
  ASSERT_GT(busy.size(), 20u);
  const auto summary = SummarizeHeaviestUser(busy);
  // The paper's Fig. 5 claim: the heaviest user alone rarely saturates a busy AP.
  EXPECT_LT(summary.solo_saturation_fraction, 0.35);
  EXPECT_GT(summary.mean_distinct_users, 1.5);
}

TEST(ResidenceGeneratorTest, HeavyUserMovesMostBytes) {
  sim::Rng rng(3);
  ResidenceConfig config;
  config.duration = Sec(30 * 60);
  const TraceLog log = GenerateResidenceTrace(config, rng);
  std::map<NodeId, int64_t> per_user;
  for (const auto& r : log.records()) {
    per_user[r.node] += r.bytes;
  }
  NodeId heaviest = kInvalidNodeId;
  int64_t best = 0;
  for (const auto& [node, bytes] : per_user) {
    if (bytes > best) {
      best = bytes;
      heaviest = node;
    }
  }
  EXPECT_EQ(heaviest, 1);  // The boosted user dominates total volume, as at Whittemore.
}

TEST(SnifferTest, RecordsFromLiveMedium) {
  sim::Simulator sim;
  sim::Rng rng(1);
  phy::PerfectChannel loss;
  mac::Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  TraceLog log;
  TraceSniffer sniffer(&log);
  medium.AddObserver(&sniffer);

  // Minimal station pair via the mac test pattern.
  struct Sat : mac::FrameProvider, mac::FrameSink {
    Sat(mac::Medium* m, NodeId id, NodeId peer) : peer_(peer), e_(m, id, this, this) {}
    std::optional<mac::MacFrame> NextFrame() override {
      if (count_ >= 20) {
        return std::nullopt;
      }
      ++count_;
      auto p = net::MakeUdpPacket(TestPool(), e_.id(), peer_, e_.id(), 0, 1500, count_, 0);
      return mac::MakeDataFrame(e_.id(), peer_, std::move(p), phy::WifiRate::k5_5Mbps);
    }
    void OnTxComplete(const mac::MacFrame&, bool, int, TimeNs) override {}
    void OnFrameReceived(const mac::MacFrame&) override {}
    NodeId peer_;
    int count_ = 0;
    mac::DcfEntity e_;
  };

  Sat receiver(&medium, 2, 1);
  Sat sender(&medium, 1, 2);
  receiver.count_ = 20;  // Receiver stays quiet.
  sender.e_.NotifyBacklog();
  sim.RunUntil(Sec(1));

  EXPECT_EQ(log.size(), 20u);
  for (const auto& r : log.records()) {
    EXPECT_EQ(r.node, 1);
    EXPECT_EQ(r.rate, phy::WifiRate::k5_5Mbps);
    EXPECT_TRUE(r.success);
  }
}

}  // namespace
}  // namespace tbf::trace

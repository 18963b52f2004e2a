// DCF edge cases: ACK corruption, EIFS after corrupted frames, collision accounting,
// airtime attribution, and mixed b/g coexistence at the MAC layer.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tbf/mac/medium.h"
#include "tbf/net/packet.h"
#include "tbf/phy/channel.h"
#include "tbf/sim/simulator.h"

namespace tbf::mac {
namespace {

// Process-lifetime pool: frames and exchange records may be released during teardown of
// media/simulators declared in any order, so the pool must outlive them all.
net::PacketPool& TestPool() {
  static net::PacketPool pool;
  return pool;
}

class Station : public FrameProvider, public FrameSink {
 public:
  Station(Medium* medium, NodeId id, NodeId peer, phy::WifiRate rate, int64_t budget = -1)
      : id_(id), peer_(peer), rate_(rate), budget_(budget), entity_(medium, id, this, this) {}

  void Start() { entity_.NotifyBacklog(); }

  std::optional<MacFrame> NextFrame() override {
    if (budget_ == 0) {
      return std::nullopt;
    }
    if (budget_ > 0) {
      --budget_;
    }
    auto p = net::MakeUdpPacket(TestPool(), id_, peer_, id_, 0, 1500, seq_++, 0);
    return MakeDataFrame(id_, peer_, std::move(p), rate_);
  }

  void OnTxComplete(const MacFrame&, bool success, int attempts, TimeNs) override {
    ++completions_;
    successes_ += success ? 1 : 0;
    attempts_ += attempts;
  }

  void OnFrameReceived(const MacFrame&) override { ++received_; }

  NodeId id_;
  NodeId peer_;
  phy::WifiRate rate_;
  int64_t budget_;
  int64_t seq_ = 0;
  int64_t completions_ = 0;
  int64_t successes_ = 0;
  int64_t attempts_ = 0;
  int64_t received_ = 0;
  DcfEntity entity_;
};

// Loss model that corrupts only MAC ACK frames (14 bytes) on a chosen link.
class AckKiller : public phy::LossModel {
 public:
  AckKiller(NodeId src, NodeId dst, double p) : src_(src), dst_(dst), p_(p) {}

  double FrameLossProb(NodeId src, NodeId dst, int frame_bytes,
                       phy::WifiRate) const override {
    if (src == src_ && dst == dst_ && frame_bytes == phy::kMacAckFrameBytes) {
      return p_;
    }
    return 0.0;
  }

 private:
  NodeId src_;
  NodeId dst_;
  double p_;
};

TEST(MacEdgeTest, LostAckCausesRetransmissionButDataIsDelivered) {
  sim::Simulator sim;
  sim::Rng rng(3);
  AckKiller loss(/*src=*/2, /*dst=*/1, 1.0);  // Receiver's ACKs never survive.
  Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  Station rx(&medium, 2, 1, phy::WifiRate::k11Mbps, 0);
  Station tx(&medium, 1, 2, phy::WifiRate::k11Mbps, 1);
  tx.Start();
  sim.RunUntil(Sec(1));
  // Data reaches the receiver on every attempt, but the sender never sees an ACK and
  // eventually drops the frame after retry exhaustion.
  EXPECT_EQ(tx.successes_, 0);
  EXPECT_EQ(tx.completions_, 1);
  EXPECT_EQ(tx.attempts_, 8);
  EXPECT_EQ(rx.received_, 8);  // Each retry is (re)delivered; transports dedup by seq.
}

TEST(MacEdgeTest, OccasionalAckLossOnlySlowsThingsDown) {
  sim::Simulator sim;
  sim::Rng rng(3);
  AckKiller loss(2, 1, 0.2);
  Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  Station rx(&medium, 2, 1, phy::WifiRate::k11Mbps, 0);
  Station tx(&medium, 1, 2, phy::WifiRate::k11Mbps, 200);
  tx.Start();
  sim.RunUntil(Sec(2));
  EXPECT_EQ(tx.successes_, 200);
  EXPECT_GT(tx.attempts_, 220);  // ~1.25 attempts per frame.
  EXPECT_GE(rx.received_, 200);
}

TEST(MacEdgeTest, CollisionTimeChargedToBothOwners) {
  sim::Simulator sim;
  sim::Rng rng(5);
  phy::PerfectChannel loss;
  Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  Station sink(&medium, 3, 1, phy::WifiRate::k11Mbps, 0);
  Station a(&medium, 1, 3, phy::WifiRate::k11Mbps);
  Station b(&medium, 2, 3, phy::WifiRate::k11Mbps);
  a.Start();
  b.Start();
  sim.RunUntil(Sec(5));
  ASSERT_GT(medium.collisions(), 0);
  // Both stations got airtime charged; shares near 1/2 each even with collisions.
  EXPECT_NEAR(medium.airtime_meter().Share(1), 0.5, 0.05);
  EXPECT_NEAR(medium.airtime_meter().Share(2), 0.5, 0.05);
}

TEST(MacEdgeTest, BusyTimeNeverExceedsWallClock) {
  sim::Simulator sim;
  sim::Rng rng(5);
  phy::PerfectChannel loss;
  Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  Station sink(&medium, 3, 1, phy::WifiRate::k1Mbps, 0);
  Station a(&medium, 1, 3, phy::WifiRate::k1Mbps);
  Station b(&medium, 2, 3, phy::WifiRate::k11Mbps);
  a.Start();
  b.Start();
  sim.RunUntil(Sec(3));
  EXPECT_LE(medium.busy_time(), Sec(3));
  EXPECT_GT(medium.busy_time(), Sec(3) * 8 / 10);  // Saturated cell stays mostly busy.
}

TEST(MacEdgeTest, MixedBgCellSharesOpportunitiesEqually) {
  // An ERP-OFDM (54 Mbps) station and a DSSS (11 Mbps) station in one mixed-mode cell:
  // DCF still hands out equal opportunities - the g node's frames are just shorter.
  sim::Simulator sim;
  sim::Rng rng(9);
  phy::PerfectChannel loss;
  Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  Station sink(&medium, 3, 1, phy::WifiRate::k11Mbps, 0);
  Station g_node(&medium, 1, 3, phy::WifiRate::k54Mbps);
  Station b_node(&medium, 2, 3, phy::WifiRate::k11Mbps);
  g_node.Start();
  b_node.Start();
  sim.RunUntil(Sec(5));
  const double frame_ratio =
      static_cast<double>(g_node.successes_) / static_cast<double>(b_node.successes_);
  EXPECT_NEAR(frame_ratio, 1.0, 0.1);
  // And the b node dominates the airtime (the 802.11g-dragging effect at MAC level).
  EXPECT_GT(medium.airtime_meter().Share(2), 0.60);
}

TEST(MacEdgeTest, PureOfdmTimingsRunFaster) {
  auto run = [](const phy::MacTimings& timings) {
    sim::Simulator sim;
    sim::Rng rng(1);
    phy::PerfectChannel loss;
    Medium medium(&sim, timings, &loss, &rng);
    Station rx(&medium, 2, 1, phy::WifiRate::k54Mbps, 0);
    Station tx(&medium, 1, 2, phy::WifiRate::k54Mbps);
    tx.Start();
    sim.RunUntil(Sec(2));
    return tx.successes_;
  };
  // A pure 802.11g cell's 9 us slots + CWmin 15 beat 20 us slots + CWmin 31 at
  // identical PHY rate.
  phy::MacTimings pure_ofdm;
  pure_ofdm.slot = Us(9);
  pure_ofdm.cw_min = 15;
  EXPECT_GT(run(pure_ofdm), run(phy::MixedModeTimings()) * 11 / 10);
}

TEST(MacEdgeTest, ManyStationsStillFair) {
  sim::Simulator sim;
  sim::Rng rng(11);
  phy::PerfectChannel loss;
  Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  Station sink(&medium, 99, 1, phy::WifiRate::k11Mbps, 0);
  std::vector<std::unique_ptr<Station>> stations;
  for (NodeId id = 1; id <= 8; ++id) {
    stations.push_back(std::make_unique<Station>(&medium, id, 99, phy::WifiRate::k11Mbps));
  }
  for (auto& s : stations) {
    s->Start();
  }
  sim.RunUntil(Sec(10));
  int64_t min_tx = INT64_MAX;
  int64_t max_tx = 0;
  for (auto& s : stations) {
    min_tx = std::min(min_tx, s->successes_);
    max_tx = std::max(max_tx, s->successes_);
  }
  EXPECT_GT(min_tx, 0);
  EXPECT_LT(static_cast<double>(max_tx) / static_cast<double>(min_tx), 1.2);
  // More contenders -> more collisions, still bounded.
  const double collision_frac =
      static_cast<double>(medium.collisions()) / static_cast<double>(medium.exchanges());
  EXPECT_GT(collision_frac, 0.05);
  EXPECT_LT(collision_frac, 0.35);
}

TEST(MacEdgeTest, RetryUsesExponentialBackoff) {
  // With a dead link, inter-attempt gaps should grow (CW doubling). We measure via
  // total time to exhaust retries being much larger than 8 back-to-back attempts.
  sim::Simulator sim;
  sim::Rng rng(2);
  phy::FixedPerLink loss;
  loss.SetLinkPer(1, 2, 1.0);
  Medium medium(&sim, phy::MixedModeTimings(), &loss, &rng);
  Station rx(&medium, 2, 1, phy::WifiRate::k11Mbps, 0);
  Station tx(&medium, 1, 2, phy::WifiRate::k11Mbps, 1);
  tx.Start();
  const int64_t events = sim.RunUntil(Sec(5));
  EXPECT_GT(events, 0);
  EXPECT_EQ(tx.completions_, 1);
  EXPECT_EQ(tx.successes_, 0);
  // Every attempt put exactly one (unacked) data frame on the air: busy time is
  // precisely 8 frame airtimes, the rest of the cycle being timeout + growing backoff.
  EXPECT_EQ(medium.busy_time(), 8 * phy::FrameAirtime(1536, phy::WifiRate::k11Mbps));
  EXPECT_EQ(tx.entity_.retransmissions(), 8);
}

TEST(MacEdgeTest, ObserversSeeEveryExchangeOnceInBusyEndOrder) {
  // All attached observers must see the same exchange stream: every exchange exactly
  // once, delivered at (and ordered by) busy_end. Guards the single-dispatch-event
  // optimization (one scheduled event per record iterating all observers).
  class Recorder : public MediumObserver {
   public:
    explicit Recorder(sim::Simulator* sim) : sim_(sim) {}
    void OnExchange(const ExchangeRecord& record) override {
      EXPECT_EQ(sim_->Now(), record.busy_end);
      EXPECT_GE(record.busy_end, last_busy_end_);
      last_busy_end_ = record.busy_end;
      ++count_;
    }
    sim::Simulator* sim_;
    TimeNs last_busy_end_ = 0;
    int64_t count_ = 0;
  };

  sim::Simulator sim;
  sim::Rng rng(1);
  phy::PerfectChannel perfect;
  Medium medium(&sim, phy::MixedModeTimings(), &perfect, &rng);
  Recorder first(&sim);
  Recorder second(&sim);
  medium.AddObserver(&first);
  medium.AddObserver(&second);

  Station sink(&medium, 3, 1, phy::WifiRate::k11Mbps, 0);
  Station a(&medium, 1, 3, phy::WifiRate::k11Mbps, 200);
  Station b(&medium, 2, 3, phy::WifiRate::k1Mbps, 200);
  a.Start();
  b.Start();
  sim.RunUntil(Sec(30));  // Bounded budgets: every exchange completes inside the run.

  // Collisions produce one record per transmitter, so records >= exchanges.
  EXPECT_GE(first.count_, medium.exchanges());
  EXPECT_EQ(first.count_, medium.exchanges() + medium.collisions());
  EXPECT_EQ(first.count_, second.count_);
  EXPECT_GT(first.count_, 0);
}

TEST(MacEdgeTest, IdleStationsPayNoPerExchangeWork) {
  // A cell with hundreds of associated-but-idle stations must not be touched on every
  // exchange: the EIFS/DIFS update is restricted to contenders and winners, and idle
  // entities sync lazily when they next contend.
  sim::Simulator sim;
  sim::Rng rng(1);
  phy::PerfectChannel perfect;
  Medium medium(&sim, phy::MixedModeTimings(), &perfect, &rng);

  Station sink(&medium, 300, 1, phy::WifiRate::k11Mbps, 0);
  Station a(&medium, 1, 300, phy::WifiRate::k11Mbps);
  Station b(&medium, 2, 300, phy::WifiRate::k11Mbps);
  std::vector<std::unique_ptr<Station>> idle;
  for (NodeId id = 3; id < 3 + 256; ++id) {
    idle.push_back(std::make_unique<Station>(&medium, id, 300, phy::WifiRate::k11Mbps, 0));
  }
  a.Start();
  b.Start();
  sim.RunUntil(Sec(2));

  ASSERT_GT(medium.exchanges(), 500);
  // Two active contenders (+ winners) per exchange, never the 256 idle stations.
  EXPECT_LT(medium.ifs_updates(), medium.exchanges() * 6);
  EXPECT_GT(a.successes_, 0);
  EXPECT_GT(b.successes_, 0);
}

}  // namespace
}  // namespace tbf::mac

// Unit tests for the Time-based Regulator against a bare simulator (no MAC underneath):
// token bookkeeping, eligibility gating, fill/adjust events, the occupancy estimator, the
// client-agent hook, and a differential check of the lazy fill against the paper's eager
// per-tick FILLEVENT.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "tbf/core/tbr.h"
#include "tbf/sim/random.h"

namespace tbf::core {
namespace {

net::PacketPool& TestPool() {
  static net::PacketPool pool;
  return pool;
}

net::PacketPtr MakePacket(NodeId client, int size = 1500) {
  net::PacketPtr p = TestPool().Allocate();
  p->wlan_client = client;
  p->dst = client;
  p->size_bytes = size;
  return p;
}

mac::MacFrame MakeFrame(NodeId client, int ip_bytes, phy::WifiRate rate) {
  return mac::MakeDataFrame(kApId, client, MakePacket(client, ip_bytes), rate);
}

constexpr TimeNs kFillPeriod = TimeBasedRegulator::kFillPeriod;
constexpr TimeNs kAdjustPeriod = TimeBasedRegulator::kAdjustPeriod;
constexpr TimeNs kDemandPeriod = TimeBasedRegulator::kDemandPeriod;

class TbrTest : public ::testing::Test {
 protected:
  // `contenders` is the cell's declared station count, the contention divisor.
  TimeBasedRegulator MakeTbr(TbrConfig config = {}, size_t contenders = 1) {
    return TimeBasedRegulator(&sim_, phy::MixedModeTimings(), config, contenders);
  }

  sim::Simulator sim_;
};

TEST_F(TbrTest, AssociateInitializesState) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  EXPECT_EQ(tbr.tokens(1), tbr.config().initial_tokens);
  EXPECT_DOUBLE_EQ(tbr.rate(1), 0.5);
  EXPECT_DOUBLE_EQ(tbr.rate(2), 0.5);
}

TEST_F(TbrTest, ReassociationIsIdempotent) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  tbr.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
  const TimeNs after_charge = tbr.tokens(1);
  tbr.OnAssociate(1);
  EXPECT_EQ(tbr.tokens(1), after_charge);  // Not reset.
}

TEST_F(TbrTest, FairRatesRecomputeOnJoin) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  EXPECT_DOUBLE_EQ(tbr.rate(1), 1.0);
  tbr.OnAssociate(2);
  tbr.OnAssociate(3);
  EXPECT_NEAR(tbr.rate(1), 1.0 / 3, 1e-12);
}

TEST_F(TbrTest, EnqueueDequeueRoundRobinAmongEligible) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  for (int i = 0; i < 2; ++i) {
    tbr.Enqueue(MakePacket(1));
    tbr.Enqueue(MakePacket(2));
  }
  EXPECT_EQ(tbr.Dequeue()->wlan_client, 1);
  EXPECT_EQ(tbr.Dequeue()->wlan_client, 2);
  EXPECT_EQ(tbr.Dequeue()->wlan_client, 1);
  EXPECT_EQ(tbr.Dequeue()->wlan_client, 2);
}

TEST_F(TbrTest, NegativeTokensGateDequeue) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  tbr.Enqueue(MakePacket(1));
  tbr.Enqueue(MakePacket(2));
  // Drain client 1's bucket far below zero (a slow-rate frame is expensive).
  for (int i = 0; i < 3; ++i) {
    tbr.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k1Mbps), true, 1, 0);
  }
  EXPECT_LT(tbr.tokens(1), 0);
  // Only client 2 is eligible now.
  EXPECT_EQ(tbr.Dequeue()->wlan_client, 2);
  EXPECT_EQ(tbr.Dequeue(), nullptr);
  EXPECT_EQ(tbr.QueuedPackets(), 1u);
}

TEST_F(TbrTest, FillEventRestoresEligibility) {
  auto tbr = MakeTbr();
  int backlog_signals = 0;
  tbr.SetBacklogCallback([&] { ++backlog_signals; });
  tbr.OnAssociate(1);
  tbr.Enqueue(MakePacket(1));
  tbr.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k1Mbps), true, 1, 0);
  tbr.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k1Mbps), true, 1, 0);
  ASSERT_LT(tbr.tokens(1), 0);
  EXPECT_FALSE(tbr.HasEligible());
  // Rate 1.0 (only client): ~16 ms debt refills in ~16 ms of fill events.
  sim_.RunUntil(Ms(40));
  EXPECT_GT(tbr.tokens(1), 0);
  EXPECT_TRUE(tbr.HasEligible());
  EXPECT_GT(backlog_signals, 0);
}

TEST_F(TbrTest, BucketDepthCapsAccumulation) {
  TbrConfig config;
  config.bucket_depth = Ms(10);
  auto tbr = MakeTbr(config);
  tbr.OnAssociate(1);
  sim_.RunUntil(Sec(2));
  EXPECT_LE(tbr.tokens(1), Ms(10));
  EXPECT_GT(tbr.tokens(1), Ms(9));
}

TEST_F(TbrTest, PerQueueLimitDrops) {
  TimeBasedRegulator tbr(&sim_, phy::MixedModeTimings(), {}, /*contenders=*/1,
                         /*per_queue_limit=*/3);
  for (int i = 0; i < 5; ++i) {
    tbr.Enqueue(MakePacket(7));
  }
  EXPECT_EQ(tbr.QueuedPackets(), 3u);
  EXPECT_EQ(tbr.drops(), 2);
}

TEST_F(TbrTest, EstimatorMatchesExchangeAirtimePlusContention) {
  auto tbr = MakeTbr();  // One contender: full contention allowance.
  tbr.OnAssociate(1);
  const phy::MacTimings t = phy::MixedModeTimings();
  const TimeNs expect = phy::DataExchangeAirtime(1536, phy::WifiRate::k11Mbps, t) +
                        t.Difs() + (t.cw_min / 2) * t.slot;
  EXPECT_EQ(tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1), expect);
  EXPECT_EQ(tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 3), 3 * expect);
}

TEST_F(TbrTest, EstimatorScalesContentionByClients) {
  const TimeNs solo = MakeTbr({}, 1).EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1);
  const TimeNs duo = MakeTbr({}, 2).EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1);
  EXPECT_LT(duo, solo);
}

TEST_F(TbrTest, SlowRateFramesCostProportionallyMore) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  const TimeNs fast = tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1);
  const TimeNs slow = tbr.EstimateOccupancy(1536, phy::WifiRate::k1Mbps, 1);
  EXPECT_GT(static_cast<double>(slow) / static_cast<double>(fast), 6.0);
}

TEST_F(TbrTest, UplinkObservedChargesOwner) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  mac::ExchangeRecord record;
  record.owner = 1;
  record.tx = 1;
  record.rx = kApId;
  record.frame_bytes = 1536;
  record.rate = phy::WifiRate::k11Mbps;
  record.success = true;
  const TimeNs before = tbr.tokens(1);
  tbr.OnUplinkObserved(record);
  EXPECT_LT(tbr.tokens(1), before);
}

TEST_F(TbrTest, WithoutRetryInfoFailedUplinkAttemptsAreFree) {
  auto tbr = MakeTbr();  // use_retry_info = false.
  tbr.OnAssociate(1);
  mac::ExchangeRecord record;
  record.owner = 1;
  record.frame_bytes = 1536;
  record.rate = phy::WifiRate::k11Mbps;
  record.data_lost = true;
  record.success = false;
  record.airtime = Ms(2);
  const TimeNs before = tbr.tokens(1);
  tbr.OnUplinkObserved(record);
  EXPECT_EQ(tbr.tokens(1), before);  // The paper's driver cannot see this attempt.
}

TEST_F(TbrTest, WithRetryInfoFailedAttemptsAreCharged) {
  TbrConfig config;
  config.use_retry_info = true;
  auto tbr = MakeTbr(config);
  tbr.OnAssociate(1);
  mac::ExchangeRecord record;
  record.owner = 1;
  record.frame_bytes = 1536;
  record.rate = phy::WifiRate::k11Mbps;
  record.data_lost = true;
  record.success = false;
  record.airtime = Ms(2);
  tbr.OnUplinkObserved(record);
  EXPECT_EQ(tbr.tokens(1), tbr.config().initial_tokens - Ms(2));
}

TEST_F(TbrTest, DownlinkRetryChargingFollowsConfig) {
  auto no_retry = MakeTbr();
  no_retry.OnAssociate(1);
  no_retry.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k11Mbps), true, 4, Ms(8));
  TbrConfig config;
  config.use_retry_info = true;
  auto with_retry = MakeTbr(config);
  with_retry.OnAssociate(1);
  with_retry.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k11Mbps), true, 4, Ms(8));
  EXPECT_GT(no_retry.tokens(1), with_retry.tokens(1));
}

TEST_F(TbrTest, WorkConservingFallbackServesMaxTokenQueue) {
  TbrConfig config;
  config.work_conserving_fallback = true;
  auto tbr = MakeTbr(config);
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  tbr.Enqueue(MakePacket(1));
  tbr.Enqueue(MakePacket(2));
  // Drive both negative; client 2 less so.
  for (int i = 0; i < 4; ++i) {
    tbr.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k1Mbps), true, 1, 0);
  }
  for (int i = 0; i < 3; ++i) {
    tbr.OnTxComplete(MakeFrame(2, 1500, phy::WifiRate::k1Mbps), true, 1, 0);
  }
  ASSERT_LT(tbr.tokens(1), tbr.tokens(2));
  ASSERT_LT(tbr.tokens(2), 0);
  EXPECT_EQ(tbr.Dequeue()->wlan_client, 2);
}

TEST_F(TbrTest, StrictModeIdlesWhenNoTokens) {
  auto tbr = MakeTbr();  // Fallback off by default.
  tbr.OnAssociate(1);
  tbr.Enqueue(MakePacket(1));
  for (int i = 0; i < 4; ++i) {
    tbr.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k1Mbps), true, 1, 0);
  }
  EXPECT_EQ(tbr.Dequeue(), nullptr);
  EXPECT_FALSE(tbr.HasEligible());
  EXPECT_EQ(tbr.QueuedPackets(), 1u);
}

// Occupancy that uses up `client`'s whole assignment for one adjustment window.
TimeNs Assignment(const TimeBasedRegulator& tbr, NodeId client) {
  return static_cast<TimeNs>(tbr.rate(client) * static_cast<double>(kAdjustPeriod));
}

TEST_F(TbrTest, AdjustEventDonatesFromPersistentUnderUtilizer) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  // Client 1 consumes nothing; client 2 consumes its full assignment each window.
  for (int window = 0; window < 8; ++window) {
    const TimeNs target = sim_.Now() + kAdjustPeriod;
    const TimeNs assigned = Assignment(tbr, 2);
    tbr.OnTxComplete(MakeFrame(2, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
    while (tbr.actual_usage(2) < assigned) {
      tbr.OnTxComplete(MakeFrame(2, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
    }
    sim_.RunUntil(target);
  }
  EXPECT_LT(tbr.rate(1), 0.5);
  EXPECT_GT(tbr.rate(2), 0.5);
  // Conservation of total rate.
  EXPECT_NEAR(tbr.rate(1) + tbr.rate(2), 1.0, 1e-9);
}

TEST_F(TbrTest, LateJoinPreservesConvergedRates) {
  // Regression: GetOrAssociate used to call RecomputeFairRates unconditionally, so a
  // client joining after the adjuster had converged wiped the learned allocation back
  // to the static 1/N split. A newcomer must take only its fair share, scaling the
  // converged rates down proportionally.
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  // Client 1 idles; client 2 saturates its assignment, so the adjuster donates to it.
  for (int window = 0; window < 8; ++window) {
    const TimeNs target = sim_.Now() + kAdjustPeriod;
    const TimeNs assigned = Assignment(tbr, 2);
    while (tbr.actual_usage(2) < assigned) {
      tbr.OnTxComplete(MakeFrame(2, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
    }
    sim_.RunUntil(target);
  }
  const double converged_1 = tbr.rate(1);
  const double converged_2 = tbr.rate(2);
  ASSERT_LT(converged_1, 0.4);  // The adjuster visibly moved the allocation.
  ASSERT_GT(converged_2, 0.6);

  tbr.OnAssociate(3);
  // The newcomer gets the static fair share; incumbents keep their converged ratio.
  EXPECT_NEAR(tbr.rate(3), 1.0 / 3, 1e-12);
  EXPECT_NEAR(tbr.rate(1) / tbr.rate(2), converged_1 / converged_2, 1e-9);
  EXPECT_NEAR(tbr.rate(1), converged_1 * (2.0 / 3), 1e-9);
  EXPECT_NEAR(tbr.rate(1) + tbr.rate(2) + tbr.rate(3), 1.0, 1e-9);

  // SetWeight had the same bug: re-weighting one client must rescale, not reset.
  const double before_1 = tbr.rate(1);
  const double before_3 = tbr.rate(3);
  tbr.SetWeight(3, 2.0);
  EXPECT_NEAR(tbr.rate(3) / tbr.rate(1), 2.0 * before_3 / before_1, 1e-9);
  EXPECT_NEAR(tbr.rate(1) + tbr.rate(2) + tbr.rate(3), 1.0, 1e-9);
}

TEST_F(TbrTest, PinnedContendersMakeChargesAssociationInvariant) {
  // Regression: the contention allowance divided by clients_.size(), so identical
  // traffic drained different token amounts depending on whether peers had already
  // associated (lazy association via Enqueue vs upfront OnAssociate). With the
  // contender count fixed at the scenario's station count the charge is invariant.
  auto tbr = MakeTbr({}, 3);
  tbr.OnAssociate(1);
  const TimeNs solo = tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1);
  tbr.OnAssociate(2);
  tbr.OnAssociate(3);
  EXPECT_EQ(tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1), solo);

  // Upfront association and lazy association now bill the same traffic identically.
  auto run_order = [&](bool lazy) {
    auto t = MakeTbr({}, 3);
    t.OnAssociate(1);
    if (!lazy) {
      t.OnAssociate(2);
      t.OnAssociate(3);
    }
    t.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
    if (lazy) {
      t.OnAssociate(2);
      t.OnAssociate(3);
    }
    t.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
    return t.config().initial_tokens - t.tokens(1);
  };
  EXPECT_EQ(run_order(false), run_order(true));

  // And full association-order permutations leave every client's drain identical:
  // the regulator's results are a function of the traffic, not of join order.
  auto run_perm = [&](const std::vector<NodeId>& order) {
    auto t = MakeTbr({}, 3);
    for (const NodeId id : order) {
      t.OnAssociate(id);
    }
    std::vector<TimeNs> drains;
    for (const NodeId id : {1, 2, 3}) {
      t.OnTxComplete(MakeFrame(id, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
      drains.push_back(t.config().initial_tokens - t.tokens(id));
    }
    return drains;
  };
  EXPECT_EQ(run_perm({1, 2, 3}), run_perm({3, 1, 2}));
}

TEST_F(TbrTest, WeightedSharesScaleRates) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  tbr.OnAssociate(3);
  tbr.SetWeight(1, 3.0);
  tbr.SetWeight(2, 2.0);
  tbr.SetWeight(3, 1.0);
  EXPECT_NEAR(tbr.rate(1), 0.5, 1e-12);
  EXPECT_NEAR(tbr.rate(2), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(tbr.rate(3), 1.0 / 6.0, 1e-12);
}

TEST_F(TbrTest, ClientAgentPausesIndebtedClient) {
  TbrConfig config;
  config.client_agent = true;
  auto tbr = MakeTbr(config);
  NodeId paused_client = kInvalidNodeId;
  TimeNs paused_until = 0;
  tbr.SetClientPauseFn([&](NodeId c, TimeNs until) {
    paused_client = c;
    paused_until = until;
  });
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  for (int i = 0; i < 4; ++i) {
    tbr.OnTxComplete(MakeFrame(1, 1500, phy::WifiRate::k1Mbps), true, 1, 0);
  }
  EXPECT_EQ(paused_client, 1);
  EXPECT_GT(paused_until, sim_.Now());
}

// The paper's FILLEVENT run eagerly beside the regulator: every tick adds
// rate_i * kFillPeriod to every client's bucket and clamps it at bucket_depth. It
// mirrors the tokens and queue lengths of the same op stream, and takes the rates from
// the regulator, whose rate logic is not what this checks.
class EagerFillReference {
 public:
  explicit EagerFillReference(const TbrConfig& config) : config_(config) {}

  void Associate(NodeId client) {
    if (Known(client)) {
      return;
    }
    const auto i = static_cast<size_t>(client);
    if (i >= tokens_.size()) {
      tokens_.resize(i + 1, 0);
      queued_.resize(i + 1, -1);
    }
    tokens_[i] = config_.initial_tokens;
    queued_[i] = 0;
    clients_.push_back(client);
  }
  bool Known(NodeId client) const {
    return static_cast<size_t>(client) < queued_.size() &&
           queued_[static_cast<size_t>(client)] >= 0;
  }
  void Charge(NodeId client, TimeNs occupancy) {
    tokens_[static_cast<size_t>(client)] -= occupancy;
  }
  void Enqueued(NodeId client) { ++queued_[static_cast<size_t>(client)]; }
  void Dequeued(NodeId client) { --queued_[static_cast<size_t>(client)]; }

  bool Eligible(NodeId client) const {
    const auto i = static_cast<size_t>(client);
    return queued_[i] > 0 && tokens_[i] > 0;
  }
  // What Dequeue() may serve: a positive-credit client, else (fallback) any backlog.
  bool AnyServable() const {
    for (const NodeId c : clients_) {
      if (Eligible(c) ||
          (config_.work_conserving_fallback && queued_[static_cast<size_t>(c)] > 0)) {
        return true;
      }
    }
    return false;
  }
  bool AnyEligible() const {
    return std::any_of(clients_.begin(), clients_.end(),
                       [this](NodeId c) { return Eligible(c); });
  }

  // One FILLEVENT at the regulator's current rates. Returns whether a backlogged
  // client crossed above zero, which is when the regulator must NotifyBacklog().
  bool Tick(const TimeBasedRegulator& tbr) {
    bool crossed = false;
    for (const NodeId c : clients_) {
      const auto i = static_cast<size_t>(c);
      const bool was = Eligible(c);
      const auto fill =
          static_cast<TimeNs>(tbr.rate(c) * static_cast<double>(kFillPeriod));
      tokens_[i] = std::min(tokens_[i] + fill, config_.bucket_depth);
      crossed = crossed || (!was && Eligible(c));
    }
    return crossed;
  }

  // Empty when the regulator's tokens match for every client, else the first mismatch.
  std::string Mismatch(const TimeBasedRegulator& tbr) const {
    for (const NodeId c : clients_) {
      const TimeNs want = tokens_[static_cast<size_t>(c)];
      if (tbr.tokens(c) != want) {
        std::ostringstream out;
        out << "client " << c << ": lazy " << tbr.tokens(c) << " ns, eager " << want
            << " ns";
        return out.str();
      }
    }
    return "";
  }

  TimeNs tokens(NodeId client) const { return tokens_[static_cast<size_t>(client)]; }
  const std::vector<NodeId>& clients() const { return clients_; }

 private:
  TbrConfig config_;
  std::vector<TimeNs> tokens_;  // By NodeId.
  std::vector<int> queued_;     // By NodeId; -1 = not associated.
  std::vector<NodeId> clients_;
};

// One regulator beside the eager reference, on a simulator of its own. Every op goes to
// both, and Tick() advances one fill period: tokens must match after every op batch and
// every tick, and NotifyBacklog() must fire at exactly the eager loop's instants.
class LazyFillHarness {
 public:
  explicit LazyFillHarness(const TbrConfig& config)
      : config_(config),
        tbr_(&sim_, phy::MixedModeTimings(), config, /*contenders=*/6,
             /*per_queue_limit=*/6),
        ref_(config) {
    tbr_.SetBacklogCallback([this] { lazy_notified_.push_back(sim_.Now()); });
    tbr_.SetClientPauseFn([](NodeId, TimeNs) {});
  }
  LazyFillHarness(const LazyFillHarness&) = delete;
  LazyFillHarness& operator=(const LazyFillHarness&) = delete;

  void Associate(NodeId client) {
    ref_.Associate(client);
    tbr_.OnAssociate(client);
  }
  // Like the regulator, associates a client it has not seen.
  void Enqueue(NodeId client) {
    ref_.Associate(client);
    if (tbr_.Enqueue(MakePacket(client))) {
      ref_.Enqueued(client);
    }
  }
  // Serves one packet, which must be one the reference allows.
  net::PacketPtr Dequeue() {
    EXPECT_EQ(tbr_.HasEligible(), ref_.AnyServable());
    net::PacketPtr p = tbr_.Dequeue();
    EXPECT_EQ(p != nullptr, ref_.AnyServable());
    if (p != nullptr) {
      const NodeId c = p->wlan_client;
      EXPECT_TRUE(ref_.Eligible(c) ||
                  (config_.work_conserving_fallback && !ref_.AnyEligible()))
          << "served client " << c;
      ref_.Dequeued(c);
    }
    return p;
  }
  void ChargeDownlink(net::PacketPtr p, phy::WifiRate rate, int attempts) {
    const NodeId c = p->wlan_client;
    Charge(c, [&] {
      tbr_.OnTxComplete(mac::MakeDataFrame(kApId, c, std::move(p), rate), attempts < 4,
                        attempts, Ms(attempts));
    });
  }
  void ChargeUplink(const mac::ExchangeRecord& record) {
    Charge(record.owner, [&] { tbr_.OnUplinkObserved(record); });
  }
  void SetWeight(NodeId client, double weight) { tbr_.SetWeight(client, weight); }

  // Checks the op batch, advances to the next fill tick, and checks again. Returns the
  // first token mismatch, or "" when every client matches.
  std::string Tick() {
    std::string mismatch = ref_.Mismatch(tbr_);
    if (!mismatch.empty()) {
      return "before tick " + std::to_string(ticks_ + 1) + ": " + mismatch;
    }
    ++ticks_;
    sim_.RunUntil(ticks_ * kFillPeriod);
    if (ref_.Tick(tbr_)) {
      eager_notified_.push_back(sim_.Now());
    }
    mismatch = ref_.Mismatch(tbr_);
    return mismatch.empty() ? ""
                            : "after tick " + std::to_string(ticks_) + ": " + mismatch;
  }

  const TimeBasedRegulator& tbr() const { return tbr_; }
  const EagerFillReference& ref() const { return ref_; }
  int64_t ticks() const { return ticks_; }
  const std::vector<TimeNs>& lazy_notified() const { return lazy_notified_; }
  const std::vector<TimeNs>& eager_notified() const { return eager_notified_; }

 private:
  // The charge is read back from actual_usage(): what is billed is not under test.
  template <typename Deliver>
  void Charge(NodeId client, Deliver deliver) {
    const TimeNs before = tbr_.actual_usage(client);
    deliver();
    ref_.Charge(client, tbr_.actual_usage(client) - before);
  }

  TbrConfig config_;
  sim::Simulator sim_;
  TimeBasedRegulator tbr_;
  EagerFillReference ref_;
  int64_t ticks_ = 0;
  std::vector<TimeNs> lazy_notified_;
  std::vector<TimeNs> eager_notified_;
};

mac::ExchangeRecord UplinkRecord(NodeId owner, int frame_bytes, phy::WifiRate rate) {
  mac::ExchangeRecord record;
  record.owner = owner;
  record.tx = owner;
  record.rx = kApId;
  record.frame_bytes = frame_bytes;
  record.rate = rate;
  record.success = true;
  return record;
}

// A seeded random op stream through the harness: enqueues, dequeues with downlink
// charges, uplink charges, re-weighting and late association, in batches between fill
// ticks. Adds the number of ticks that notified to `*notified`.
void ExpectLazyFillMatchesEager(const TbrConfig& config, uint64_t seed,
                                size_t* notified) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  constexpr NodeId kInitialClients = 6;
  constexpr NodeId kMaxClients = 12;
  constexpr int64_t kTicks = 3000;
  static constexpr phy::WifiRate kRates[] = {phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps,
                                             phy::WifiRate::k5_5Mbps,
                                             phy::WifiRate::k11Mbps};
  sim::Rng rng(seed);
  LazyFillHarness h(config);
  for (NodeId c = 1; c <= kInitialClients; ++c) {
    h.Associate(c);
  }
  NodeId last_client = kInitialClients;
  auto any = [&] {
    const auto n = static_cast<int64_t>(h.ref().clients().size());
    return h.ref().clients()[static_cast<size_t>(rng.UniformInt(0, n - 1))];
  };
  // Clients 1-4 carry most downlink traffic; 5 and up see little, so the adjusters
  // find donors whenever the load leaves headroom.
  auto pick = [&] {
    return rng.Bernoulli(0.85) ? static_cast<NodeId>(rng.UniformInt(1, 4)) : any();
  };
  auto rate = [&] { return kRates[rng.UniformInt(0, 3)]; };

  int64_t load = 2;
  for (int64_t tick = 1; tick <= kTicks; ++tick) {
    if (tick % 250 == 1) {
      load = rng.UniformInt(0, 6);  // Phases of light and heavy load.
    }
    const int64_t ops = rng.UniformInt(0, load);
    for (int64_t op = 0; op < ops; ++op) {
      const int64_t kind = rng.UniformInt(0, 99);
      if (kind < 45) {
        h.Enqueue(pick());
      } else if (kind < 80) {
        net::PacketPtr p = h.Dequeue();
        if (p != nullptr && rng.Bernoulli(0.9)) {
          const phy::WifiRate r = rate();
          h.ChargeDownlink(std::move(p), r, static_cast<int>(rng.UniformInt(1, 4)));
        }
      } else if (kind < 92) {
        // Mostly one uplink frame; now and then a long burst.
        const NodeId owner = any();
        const int64_t frames = rng.Bernoulli(0.05) ? rng.UniformInt(10, 60) : 1;
        for (int64_t f = 0; f < frames; ++f) {
          const auto bytes = static_cast<int>(rng.UniformInt(80, 1536));
          mac::ExchangeRecord record = UplinkRecord(owner, bytes, rate());
          record.collision = rng.Bernoulli(0.1);
          record.data_lost = rng.Bernoulli(0.1);
          record.success = !record.collision && !record.data_lost;
          record.airtime = Us(rng.UniformInt(200, 6000));
          h.ChargeUplink(record);
        }
      } else if (kind < 96) {
        const NodeId c = pick();
        h.SetWeight(c, 0.5 + 0.5 * static_cast<double>(rng.UniformInt(0, 5)));
      } else if (last_client < kMaxClients) {
        // Late association, half through an explicit join, half through a packet.
        const NodeId c = ++last_client;
        if (rng.Bernoulli(0.5)) {
          h.Associate(c);
        } else {
          h.Enqueue(c);
        }
      }
    }
    ASSERT_EQ(h.Tick(), "");
  }
  EXPECT_EQ(h.lazy_notified(), h.eager_notified());
  *notified += h.eager_notified().size();
}

void ExpectLazyFillMatchesEagerOverSeeds(const TbrConfig& config) {
  size_t notified = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ExpectLazyFillMatchesEager(config, seed, &notified);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(notified, 20u);  // The streams do exercise the wake heap.
}

// TbrTest's fixture is unused here: each seed runs on a fresh simulator.
TEST_F(TbrTest, LazyFillMatchesEagerStock) { ExpectLazyFillMatchesEagerOverSeeds({}); }

TEST_F(TbrTest, LazyFillMatchesEagerFastEwma) {
  TbrConfig config;
  config.mode = TbrMode::kFastEwma;
  ExpectLazyFillMatchesEagerOverSeeds(config);
}

TEST_F(TbrTest, LazyFillMatchesEagerWorkConservingFallback) {
  TbrConfig config;
  config.work_conserving_fallback = true;
  ExpectLazyFillMatchesEagerOverSeeds(config);
}

TEST_F(TbrTest, LazyFillMatchesEagerShallowBucket) {
  // A bucket shallower than the initial tokens, so fills clamp often.
  TbrConfig config;
  config.bucket_depth = Ms(3);
  ExpectLazyFillMatchesEagerOverSeeds(config);
}

TEST_F(TbrTest, LazyFillMatchesEagerRetryInfoClientAgent) {
  TbrConfig config;
  config.use_retry_info = true;
  config.client_agent = true;
  ExpectLazyFillMatchesEagerOverSeeds(config);
}

TEST_F(TbrTest, DemandEventSeesDebtTheFillRepaidUnseen) {
  // Fast-EWMA counts a client in token debt as active. Client 2 runs up ~0.8 s of debt
  // in one uplink burst and is never touched again; client 1 stays backlogged. The
  // fill repays client 2 about 1.5 s in, long after its usage has decayed, and the
  // first demand event after that must see the debt repaid although nothing has
  // folded the latest ticks into client 2's bucket: it parks the client at kMinRate.
  TbrConfig config;
  config.mode = TbrMode::kFastEwma;
  LazyFillHarness h(config);
  h.Associate(1);
  h.Associate(2);
  h.Enqueue(1);  // Never served.
  for (int i = 0; i < 60; ++i) {
    h.ChargeUplink(UplinkRecord(2, 1536, phy::WifiRate::k1Mbps));
  }
  ASSERT_LT(h.ref().tokens(2), -Ms(700));
  while (h.ref().tokens(2) <= 0) {
    ASSERT_EQ(h.Tick(), "");
    ASSERT_LT(h.ticks(), 2000);
  }
  ASSERT_GT(h.ticks(), 600);  // Repaid after the usage decayed below the threshold.
  while (h.ticks() % (kDemandPeriod / kFillPeriod) != 0) {
    ASSERT_EQ(h.Tick(), "");
  }
  EXPECT_DOUBLE_EQ(h.tbr().rate(2), TimeBasedRegulator::kMinRate);
  EXPECT_DOUBLE_EQ(h.tbr().rate(1), 1.0 - TimeBasedRegulator::kMinRate);
}

TEST_F(TbrTest, IdleRegulatorRunsOnlyRateEvents) {
  // With nothing queued, the only fill tick that runs is the first after the
  // association moved the rates. The rate events move none (an idle cell keeps its fair
  // split), so they arm no tick, and the other 2 ms ticks only count.
  for (const TbrMode mode : {TbrMode::kStock, TbrMode::kFastEwma}) {
    SCOPED_TRACE(mode == TbrMode::kStock ? "stock" : "fast-EWMA");
    TbrConfig config;
    config.mode = mode;
    sim::Simulator sim;
    TimeBasedRegulator tbr(&sim, phy::MixedModeTimings(), config, /*contenders=*/8);
    for (NodeId c = 1; c <= 8; ++c) {
      tbr.OnAssociate(c);
    }
    const TimeNs period = mode == TbrMode::kStock ? kAdjustPeriod : kDemandPeriod;
    EXPECT_LE(sim.RunUntil(Sec(10)), Sec(10) / period + 1);
  }
}

}  // namespace
}  // namespace tbf::core

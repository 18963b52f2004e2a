// Unit tests for the Time-based Regulator against a bare simulator (no MAC underneath):
// token bookkeeping, eligibility gating, fill/adjust events, the occupancy estimator, and
// the client-agent hook.
#include <gtest/gtest.h>

#include "tbf/core/tbr.h"

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

class TbrTest : public ::testing::Test {
 protected:
  TimeBasedRegulator MakeTbr(TbrConfig config = {}) {
    return TimeBasedRegulator(&sim_, phy::MixedModeTimings(), config);
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
  TbrConfig config;
  config.fill_period = Ms(1);
  auto tbr = MakeTbr(config);
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
  config.fill_period = Ms(1);
  auto tbr = MakeTbr(config);
  tbr.OnAssociate(1);
  sim_.RunUntil(Sec(2));
  EXPECT_LE(tbr.tokens(1), Ms(10));
  EXPECT_GT(tbr.tokens(1), Ms(9));
}

TEST_F(TbrTest, PerQueueLimitDrops) {
  TimeBasedRegulator tbr(&sim_, phy::MixedModeTimings(), {}, /*per_queue_limit=*/3);
  for (int i = 0; i < 5; ++i) {
    tbr.Enqueue(MakePacket(7));
  }
  EXPECT_EQ(tbr.QueuedPackets(), 3u);
  EXPECT_EQ(tbr.drops(), 2);
}

TEST_F(TbrTest, EstimatorMatchesExchangeAirtimePlusContention) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);  // One client: full contention allowance.
  const phy::MacTimings t = phy::MixedModeTimings();
  const TimeNs expect = phy::DataExchangeAirtime(1536, phy::WifiRate::k11Mbps, t) +
                        t.Difs() + (t.cw_min / 2) * t.slot;
  EXPECT_EQ(tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1), expect);
  EXPECT_EQ(tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 3), 3 * expect);
}

TEST_F(TbrTest, EstimatorScalesContentionByClients) {
  auto tbr = MakeTbr();
  tbr.OnAssociate(1);
  const TimeNs solo = tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1);
  tbr.OnAssociate(2);
  const TimeNs duo = tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1);
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

TEST_F(TbrTest, AdjustEventDonatesFromPersistentUnderUtilizer) {
  TbrConfig config;
  config.adjust_period = Ms(100);
  config.usage_ewma_alpha = 1.0;  // React immediately for the unit test.
  auto tbr = MakeTbr(config);
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  // Client 1 consumes nothing; client 2 consumes its full assignment each window.
  for (int window = 0; window < 8; ++window) {
    const TimeNs target = sim_.Now() + Ms(100);
    // 50 ms of charged occupancy in a 100 ms window = client 2's full 0.5 share.
    tbr.OnTxComplete(MakeFrame(2, 1500, phy::WifiRate::k11Mbps), true, 1, 0);
    while (tbr.actual_usage(2) < Ms(50)) {
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
  TbrConfig config;
  config.adjust_period = Ms(100);
  config.usage_ewma_alpha = 1.0;
  auto tbr = MakeTbr(config);
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  // Client 1 idles; client 2 saturates its assignment, so the adjuster donates to it.
  for (int window = 0; window < 8; ++window) {
    const TimeNs target = sim_.Now() + Ms(100);
    while (tbr.actual_usage(2) < Ms(50)) {
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
  // contender count pinned to the scenario's station count the charge is invariant.
  TbrConfig config;
  config.contention_contenders = 3;
  auto tbr = MakeTbr(config);
  tbr.OnAssociate(1);
  const TimeNs solo = tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1);
  tbr.OnAssociate(2);
  tbr.OnAssociate(3);
  EXPECT_EQ(tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1), solo);

  // Upfront association and lazy association now bill the same traffic identically.
  auto run_order = [&](bool lazy) {
    auto t = MakeTbr(config);
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
    auto t = MakeTbr(config);
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

}  // namespace
}  // namespace tbf::core

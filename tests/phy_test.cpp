#include <gtest/gtest.h>

#include "tbf/phy/channel.h"
#include "tbf/phy/rates.h"
#include "tbf/phy/timing.h"

namespace tbf::phy {
namespace {

TEST(RatesTest, TableIsConsistent) {
  for (int i = 0; i < kNumWifiRates; ++i) {
    const auto rate = static_cast<WifiRate>(i);
    const RateInfo& info = GetRateInfo(rate);
    EXPECT_EQ(info.rate, rate);
    EXPECT_GT(info.bps, 0);
    EXPECT_FALSE(info.name.empty());
  }
}

TEST(RatesTest, DsssLadderOrder) {
  const auto& ladder = DsssRates();
  for (size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_LT(GetRateInfo(ladder[i - 1]).bps, GetRateInfo(ladder[i]).bps);
  }
}

TEST(RatesTest, OfdmLadderOrder) {
  const auto& ladder = OfdmRates();
  for (size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_LT(GetRateInfo(ladder[i - 1]).bps, GetRateInfo(ladder[i]).bps);
  }
}

TEST(RatesTest, AckRateNeverExceedsDataRate) {
  for (int i = 0; i < kNumWifiRates; ++i) {
    const auto rate = static_cast<WifiRate>(i);
    EXPECT_LE(GetRateInfo(AckRateFor(rate)).bps, GetRateInfo(rate).bps);
  }
}

TEST(RatesTest, AckRatesMatchBasicSets) {
  EXPECT_EQ(AckRateFor(WifiRate::k1Mbps), WifiRate::k1Mbps);
  EXPECT_EQ(AckRateFor(WifiRate::k2Mbps), WifiRate::k2Mbps);
  EXPECT_EQ(AckRateFor(WifiRate::k5_5Mbps), WifiRate::k2Mbps);
  EXPECT_EQ(AckRateFor(WifiRate::k11Mbps), WifiRate::k2Mbps);
  EXPECT_EQ(AckRateFor(WifiRate::k54Mbps), WifiRate::k24Mbps);
  EXPECT_EQ(AckRateFor(WifiRate::k6Mbps), WifiRate::k6Mbps);
}

TEST(RatesTest, StepDownAndUpWalkTheLadder) {
  EXPECT_EQ(StepDown(WifiRate::k11Mbps), WifiRate::k5_5Mbps);
  EXPECT_EQ(StepDown(WifiRate::k1Mbps), WifiRate::k1Mbps);  // Floor.
  EXPECT_EQ(StepUp(WifiRate::k5_5Mbps), WifiRate::k11Mbps);
  EXPECT_EQ(StepUp(WifiRate::k11Mbps), WifiRate::k11Mbps);  // DSSS ceiling.
  EXPECT_EQ(StepUp(WifiRate::k54Mbps), WifiRate::k54Mbps);
  EXPECT_EQ(StepDown(WifiRate::k6Mbps), WifiRate::k6Mbps);
}

TEST(RatesTest, RateForSnrMonotone) {
  double last_bps = 0;
  for (double snr = 0.0; snr <= 30.0; snr += 1.0) {
    const WifiRate r = RateForSnr(snr, /*ofdm_capable=*/false);
    EXPECT_GE(static_cast<double>(GetRateInfo(r).bps), last_bps);
    last_bps = static_cast<double>(GetRateInfo(r).bps);
  }
}

TEST(RatesTest, RateForSnrSelectsExpectedTiers) {
  EXPECT_EQ(RateForSnr(0.0, false), WifiRate::k1Mbps);
  EXPECT_EQ(RateForSnr(13.0, false), WifiRate::k11Mbps);
  EXPECT_EQ(RateForSnr(30.0, true), WifiRate::k54Mbps);
}

TEST(TimingTest, DsssFrameAirtimeMatchesHandComputation) {
  // 1542-byte MAC frame at 11 Mbps: 192 us PLCP + 1542*8/11 us = 192 + 1121.45 us.
  const TimeNs t = FrameAirtime(1542, WifiRate::k11Mbps);
  EXPECT_EQ(t, Us(192) + TransmissionTime(1542, Mbps(11)));
  EXPECT_NEAR(ToMicros(t), 1313.5, 0.5);
  // Same frame at 1 Mbps: 192 + 12336 us.
  EXPECT_EQ(FrameAirtime(1542, WifiRate::k1Mbps), Us(192) + Us(12336));
}

TEST(TimingTest, OfdmFrameAirtimeUsesSymbolQuantization) {
  // 54 Mbps: 216 data bits/symbol. 1542 bytes -> 16+12336+6 = 12358 bits -> 58 symbols.
  const TimeNs t = FrameAirtime(1542, WifiRate::k54Mbps);
  EXPECT_EQ(t, Us(20) + 58 * Us(4));
  // 6 Mbps: 24 bits/symbol -> ceil(12358/24) = 515 symbols.
  EXPECT_EQ(FrameAirtime(1542, WifiRate::k6Mbps), Us(20) + 515 * Us(4));
}

TEST(TimingTest, AckAirtime) {
  // ACK for an 11 Mbps frame goes at 2 Mbps: 192 + 14*8/2 = 192 + 56 us.
  EXPECT_EQ(AckAirtime(WifiRate::k11Mbps), Us(248));
  // ACK for a 1 Mbps frame: 192 + 112 us.
  EXPECT_EQ(AckAirtime(WifiRate::k1Mbps), Us(304));
}

TEST(TimingTest, InterframeSpaces) {
  const MacTimings t = MixedModeTimings();
  EXPECT_EQ(t.Difs(), Us(50));
  EXPECT_EQ(t.sifs, Us(10));
  // EIFS = SIFS + ACK@1Mbps + DIFS = 10 + 304 + 50.
  EXPECT_EQ(t.Eifs(), Us(364));
  EXPECT_GT(t.Eifs(), t.Difs());
}

TEST(TimingTest, ExchangeAirtimeComposition) {
  const MacTimings t = MixedModeTimings();
  const TimeNs exchange = DataExchangeAirtime(1542, WifiRate::k11Mbps, t);
  EXPECT_EQ(exchange,
            FrameAirtime(1542, WifiRate::k11Mbps) + t.sifs + AckAirtime(WifiRate::k11Mbps));
}

TEST(TimingTest, AckTimeoutCoversAck) {
  const MacTimings t = MixedModeTimings();
  EXPECT_GT(AckTimeout(WifiRate::k11Mbps, t), t.sifs + AckAirtime(WifiRate::k11Mbps));
}

TEST(ChannelTest, PerfectChannelNeverLoses) {
  PerfectChannel ch;
  EXPECT_EQ(ch.FrameLossProb(1, 0, 1542, WifiRate::k11Mbps), 0.0);
}

TEST(ChannelTest, FixedPerLinkScalesWithSize) {
  FixedPerLink ch;
  ch.SetClientPer(1, 0.10);
  const double p_full = ch.FrameLossProb(1, kApId, 1500, WifiRate::k11Mbps);
  const double p_half = ch.FrameLossProb(1, kApId, 750, WifiRate::k11Mbps);
  EXPECT_NEAR(p_full, 0.10, 1e-9);
  EXPECT_LT(p_half, p_full);
  EXPECT_NEAR(p_half, 1.0 - std::sqrt(0.9), 1e-9);
  // Unconfigured link is lossless.
  EXPECT_EQ(ch.FrameLossProb(2, kApId, 1500, WifiRate::k11Mbps), 0.0);
}

TEST(ChannelTest, FixedPerBothDirections) {
  FixedPerLink ch;
  ch.SetClientPer(3, 0.05);
  EXPECT_GT(ch.FrameLossProb(3, kApId, 1500, WifiRate::k11Mbps), 0.0);
  EXPECT_GT(ch.FrameLossProb(kApId, 3, 1500, WifiRate::k11Mbps), 0.0);
}

TEST(PathLossTest, SnrDecreasesWithDistance) {
  PathLossModel model;
  EXPECT_GT(model.SnrDb(2.0), model.SnrDb(10.0));
  EXPECT_GT(model.SnrDb(10.0), model.SnrDb(30.0));
}

TEST(PathLossTest, WallsReduceSnr) {
  PathLossModel model;
  EXPECT_GT(model.SnrDb(10.0, 0, 0), model.SnrDb(10.0, 2, 0));
  EXPECT_GT(model.SnrDb(10.0, 2, 0), model.SnrDb(10.0, 0, 2));
}

TEST(PathLossTest, Exp1GeometryProducesRateDiversity) {
  // The paper's EXP-1: receivers at 4, 12, 26 and 30 feet, with 0/1/2 thin and 2 thick
  // walls; the far nodes should fall to low DSSS rates while the near node keeps 11 Mbps.
  PathLossModel model;
  const WifiRate near = model.RateAt(FeetToMeters(4), 0, 0, false);
  const WifiRate far = model.RateAt(FeetToMeters(30), 0, 2, false);
  EXPECT_EQ(near, WifiRate::k11Mbps);
  EXPECT_LT(GetRateInfo(far).bps, GetRateInfo(near).bps);
}

TEST(PathLossTest, FeetToMeters) { EXPECT_NEAR(FeetToMeters(10.0), 3.048, 1e-9); }

}  // namespace
}  // namespace tbf::phy

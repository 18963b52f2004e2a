#include "tbf/phy/rates.h"

namespace tbf::phy {
namespace {

// SNR thresholds follow the usual receiver-sensitivity ladder (~4 dB steps for DSSS,
// denser for OFDM); exact values only matter relative to each other for rate selection.
constexpr std::array<RateInfo, kNumWifiRates> kRateTable = {{
    {WifiRate::k1Mbps, 1'000'000, Modulation::kDsss, "1Mbps", 2.0},
    {WifiRate::k2Mbps, 2'000'000, Modulation::kDsss, "2Mbps", 5.0},
    {WifiRate::k5_5Mbps, 5'500'000, Modulation::kDsss, "5.5Mbps", 8.0},
    {WifiRate::k11Mbps, 11'000'000, Modulation::kDsss, "11Mbps", 12.0},
    {WifiRate::k6Mbps, 6'000'000, Modulation::kOfdm, "6Mbps", 6.0},
    {WifiRate::k9Mbps, 9'000'000, Modulation::kOfdm, "9Mbps", 7.0},
    {WifiRate::k12Mbps, 12'000'000, Modulation::kOfdm, "12Mbps", 9.0},
    {WifiRate::k18Mbps, 18'000'000, Modulation::kOfdm, "18Mbps", 11.0},
    {WifiRate::k24Mbps, 24'000'000, Modulation::kOfdm, "24Mbps", 14.0},
    {WifiRate::k36Mbps, 36'000'000, Modulation::kOfdm, "36Mbps", 18.0},
    {WifiRate::k48Mbps, 48'000'000, Modulation::kOfdm, "48Mbps", 22.0},
    {WifiRate::k54Mbps, 54'000'000, Modulation::kOfdm, "54Mbps", 24.0},
}};

constexpr std::array<WifiRate, 4> kDsssRates = {WifiRate::k1Mbps, WifiRate::k2Mbps,
                                                WifiRate::k5_5Mbps, WifiRate::k11Mbps};

constexpr std::array<WifiRate, 8> kOfdmRates = {
    WifiRate::k6Mbps,  WifiRate::k9Mbps,  WifiRate::k12Mbps, WifiRate::k18Mbps,
    WifiRate::k24Mbps, WifiRate::k36Mbps, WifiRate::k48Mbps, WifiRate::k54Mbps};

}  // namespace

const RateInfo& GetRateInfo(WifiRate rate) { return kRateTable[static_cast<size_t>(rate)]; }

std::string_view RateName(WifiRate rate) { return GetRateInfo(rate).name; }

const std::array<WifiRate, 4>& DsssRates() { return kDsssRates; }

const std::array<WifiRate, 8>& OfdmRates() { return kOfdmRates; }

WifiRate AckRateFor(WifiRate data_rate) {
  const RateInfo& info = GetRateInfo(data_rate);
  if (info.modulation == Modulation::kDsss) {
    return info.bps >= 2'000'000 ? WifiRate::k2Mbps : WifiRate::k1Mbps;
  }
  if (info.bps >= 24'000'000) {
    return WifiRate::k24Mbps;
  }
  if (info.bps >= 12'000'000) {
    return WifiRate::k12Mbps;
  }
  return WifiRate::k6Mbps;
}

namespace {

template <size_t N>
WifiRate StepWithin(const std::array<WifiRate, N>& ladder, WifiRate rate, int direction) {
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] == rate) {
      const int64_t j = static_cast<int64_t>(i) + direction;
      if (j < 0 || j >= static_cast<int64_t>(ladder.size())) {
        return rate;
      }
      return ladder[static_cast<size_t>(j)];
    }
  }
  return rate;
}

}  // namespace

WifiRate StepDown(WifiRate rate) {
  if (GetRateInfo(rate).modulation == Modulation::kDsss) {
    return StepWithin(kDsssRates, rate, -1);
  }
  return StepWithin(kOfdmRates, rate, -1);
}

WifiRate StepUp(WifiRate rate) {
  if (GetRateInfo(rate).modulation == Modulation::kDsss) {
    return StepWithin(kDsssRates, rate, +1);
  }
  return StepWithin(kOfdmRates, rate, +1);
}

WifiRate RateForSnr(double snr_db, bool ofdm_capable) {
  WifiRate best = WifiRate::k1Mbps;
  for (WifiRate r : kDsssRates) {
    if (snr_db >= GetRateInfo(r).min_snr_db) {
      best = r;
    }
  }
  if (ofdm_capable) {
    for (WifiRate r : kOfdmRates) {
      if (snr_db >= GetRateInfo(r).min_snr_db && GetRateInfo(r).bps > GetRateInfo(best).bps) {
        best = r;
      }
    }
  }
  return best;
}

}  // namespace tbf::phy

#include "tbf/phy/timing.h"

namespace tbf::phy {
namespace {

// Long-preamble PLCP: 144 us sync+SFD at 1 Mbps plus 48 us PLCP header.
constexpr TimeNs kDsssPlcpOverhead = Us(192);

// OFDM preamble (16 us) + SIGNAL (4 us).
constexpr TimeNs kOfdmPlcpOverhead = Us(20);
constexpr TimeNs kOfdmSymbol = Us(4);
constexpr int kOfdmServiceBits = 16;
constexpr int kOfdmTailBits = 6;

}  // namespace

TimeNs MacTimings::Eifs() const { return sifs + AckAirtime(WifiRate::k1Mbps) + Difs(); }

MacTimings MixedModeTimings() { return MacTimings{}; }

TimeNs FrameAirtime(int mac_frame_bytes, WifiRate rate) {
  const RateInfo& info = GetRateInfo(rate);
  if (info.modulation == Modulation::kDsss) {
    return kDsssPlcpOverhead + TransmissionTime(mac_frame_bytes, info.bps);
  }
  const int64_t payload_bits = kOfdmServiceBits + 8LL * mac_frame_bytes + kOfdmTailBits;
  const int64_t bits_per_symbol = info.bps * 4 / 1'000'000;  // rate(Mbps) * 4 us symbol.
  const int64_t symbols = (payload_bits + bits_per_symbol - 1) / bits_per_symbol;
  return kOfdmPlcpOverhead + symbols * kOfdmSymbol;
}

TimeNs AckAirtime(WifiRate data_rate) {
  return FrameAirtime(kMacAckFrameBytes, AckRateFor(data_rate));
}

TimeNs DataExchangeAirtime(int mac_frame_bytes, WifiRate rate, const MacTimings& timings) {
  return FrameAirtime(mac_frame_bytes, rate) + timings.sifs + AckAirtime(rate);
}

TimeNs AckTimeout(WifiRate data_rate, const MacTimings& timings) {
  // SIFS + ACK airtime + one slot of slack.
  return timings.sifs + AckAirtime(data_rate) + timings.slot;
}

}  // namespace tbf::phy

// 802.11 MAC/PHY timing: interframe spaces, contention windows, and frame airtimes.
//
// DSSS (802.11b) uses the long-preamble PLCP (144 us preamble + 48 us header at 1 Mbps),
// which was the interoperable default in the paper's era. ERP-OFDM (802.11g) frames use the
// 20 us preamble+SIGNAL plus 4 us symbols with 16 service + 6 tail bits. When any DSSS
// station is present, a mixed-mode (802.11b-compatible) slot/CW profile applies.
#ifndef TBF_PHY_TIMING_H_
#define TBF_PHY_TIMING_H_

#include "tbf/phy/rates.h"
#include "tbf/util/units.h"

namespace tbf::phy {

struct MacTimings {
  TimeNs slot = Us(20);
  TimeNs sifs = Us(10);
  int cw_min = 31;
  int cw_max = 1023;
  // dot11 retry limit applied to our (non-RTS) data frames.
  int retry_limit = 7;

  TimeNs Difs() const { return sifs + 2 * slot; }
  // EIFS = SIFS + ACK at the most robust mandatory rate + DIFS.
  TimeNs Eifs() const;

  friend bool operator==(const MacTimings&, const MacTimings&) = default;
};

// The 802.11b-compatible profile (also used for mixed b/g cells).
MacTimings MixedModeTimings();

// MAC framing overhead added to a network-layer packet: 24-byte MAC header + 4-byte FCS
// + 8-byte LLC/SNAP encapsulation.
inline constexpr int kMacDataOverheadBytes = 36;
inline constexpr int kMacAckFrameBytes = 14;

// Airtime of a PPDU carrying `mac_frame_bytes` (MAC header + payload + FCS) at `rate`,
// including PLCP preamble/header.
TimeNs FrameAirtime(int mac_frame_bytes, WifiRate rate);

// Airtime of the MAC-level ACK control frame answering a data frame sent at `data_rate`.
TimeNs AckAirtime(WifiRate data_rate);

// Full single-attempt exchange time for a data frame: PPDU + SIFS + ACK. This is also the
// quantity TBR's occupancy estimator charges per successful attempt.
TimeNs DataExchangeAirtime(int mac_frame_bytes, WifiRate rate, const MacTimings& timings);

// The ACK timeout a transmitter waits before concluding the attempt failed.
TimeNs AckTimeout(WifiRate data_rate, const MacTimings& timings);

}  // namespace tbf::phy

#endif  // TBF_PHY_TIMING_H_

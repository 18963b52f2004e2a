// Frame-level trace records, a medium sniffer, and trace analyzers.
//
// Mirrors what the paper's experiments did with a sniffing laptop (Fig. 1) and with the
// Dartmouth/Whittemore tcpdump data (Fig. 5): collect per-frame records, then compute
// per-rate byte fractions and busy-interval/heaviest-user statistics.
#ifndef TBF_TRACE_TRACE_H_
#define TBF_TRACE_TRACE_H_

#include <map>
#include <vector>

#include "tbf/mac/medium.h"
#include "tbf/phy/rates.h"
#include "tbf/util/units.h"

namespace tbf::trace {

struct TraceRecord {
  TimeNs time = 0;
  NodeId node = kInvalidNodeId;  // The client whose traffic this frame is.
  bool downlink = false;
  int bytes = 0;  // MAC frame bytes as seen on air.
  phy::WifiRate rate = phy::WifiRate::k1Mbps;
  bool retry = false;
  bool success = false;
};

class TraceLog {
 public:
  void Add(const TraceRecord& record) { records_.push_back(record); }
  const std::vector<TraceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

 private:
  std::vector<TraceRecord> records_;
};

// Attach to a mac::Medium to record every data-frame transmission (like the paper's
// sniffer, it sees retransmissions as separate frames).
class TraceSniffer : public mac::MediumObserver {
 public:
  explicit TraceSniffer(TraceLog* log) : log_(log) {}

  void OnExchange(const mac::ExchangeRecord& record) override {
    TraceRecord tr;
    tr.time = record.tx_start;
    tr.node = record.owner;
    tr.downlink = record.tx == kApId;
    tr.bytes = record.frame_bytes;
    tr.rate = record.rate;
    tr.retry = record.attempt > 0;
    tr.success = record.success;
    log_->Add(tr);
  }

 private:
  TraceLog* log_;
};

// ---- Analyzers ----------------------------------------------------------------------

// Fig. 1: fraction of on-air bytes carried at each PHY rate.
std::map<phy::WifiRate, double> RateByteFractions(const TraceLog& log);

// One saturated wall-clock window (Fig. 5's unit of analysis).
struct BusyInterval {
  TimeNs start = 0;
  int64_t total_bytes = 0;
  NodeId heaviest_user = kInvalidNodeId;
  double heaviest_share = 0.0;  // Fraction of the window's bytes from the heaviest user.
  int distinct_users = 0;
};

// Fig. 5: splits the trace into fixed windows and returns those whose total goodput
// exceeds `threshold_bps` (the paper uses 1-second windows and 4 Mbps).
std::vector<BusyInterval> FindBusyIntervals(const TraceLog& log,
                                            TimeNs window = Sec(1),
                                            double threshold_bps = 4e6);

// Summary over busy intervals: how often the heaviest user alone explains the traffic.
struct HeaviestUserSummary {
  int busy_intervals = 0;
  double mean_heaviest_share = 0.0;
  // Fraction of busy intervals where the heaviest user moved >90% of the bytes, i.e.
  // where a single user effectively saturated the AP alone.
  double solo_saturation_fraction = 0.0;
  double mean_distinct_users = 0.0;
};

HeaviestUserSummary SummarizeHeaviestUser(const std::vector<BusyInterval>& intervals);

}  // namespace tbf::trace

#endif  // TBF_TRACE_TRACE_H_

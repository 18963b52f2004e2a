#include "tbf/trace/trace.h"

#include <algorithm>

namespace tbf::trace {

std::map<phy::WifiRate, double> RateByteFractions(const TraceLog& log) {
  std::map<phy::WifiRate, int64_t> bytes;
  int64_t total = 0;
  for (const TraceRecord& r : log.records()) {
    bytes[r.rate] += r.bytes;
    total += r.bytes;
  }
  std::map<phy::WifiRate, double> fractions;
  if (total == 0) {
    return fractions;
  }
  for (const auto& [rate, b] : bytes) {
    fractions[rate] = static_cast<double>(b) / static_cast<double>(total);
  }
  return fractions;
}

std::vector<BusyInterval> FindBusyIntervals(const TraceLog& log, TimeNs window,
                                            double threshold_bps) {
  std::vector<BusyInterval> result;
  if (log.empty() || window <= 0) {
    return result;
  }

  // Records are time-ordered (the sniffer appends in completion order).
  TimeNs horizon = 0;
  for (const TraceRecord& r : log.records()) {
    horizon = std::max(horizon, r.time);
  }
  const auto buckets = static_cast<size_t>(horizon / window + 1);
  std::vector<std::map<NodeId, int64_t>> per_bucket(buckets);

  for (const TraceRecord& r : log.records()) {
    if (!r.success) {
      continue;  // Goodput, as in the paper's throughput-based busy definition.
    }
    per_bucket[static_cast<size_t>(r.time / window)][r.node] += r.bytes;
  }

  const double window_sec = ToSeconds(window);
  for (size_t i = 0; i < buckets; ++i) {
    int64_t total = 0;
    NodeId heaviest = kInvalidNodeId;
    int64_t heaviest_bytes = 0;
    for (const auto& [node, b] : per_bucket[i]) {
      total += b;
      if (b > heaviest_bytes) {
        heaviest_bytes = b;
        heaviest = node;
      }
    }
    const double bps = static_cast<double>(total) * 8.0 / window_sec;
    if (bps < threshold_bps) {
      continue;
    }
    BusyInterval bi;
    bi.start = static_cast<TimeNs>(i) * window;
    bi.total_bytes = total;
    bi.heaviest_user = heaviest;
    bi.heaviest_share = total > 0 ? static_cast<double>(heaviest_bytes) / total : 0.0;
    bi.distinct_users = static_cast<int>(per_bucket[i].size());
    result.push_back(bi);
  }
  return result;
}

HeaviestUserSummary SummarizeHeaviestUser(const std::vector<BusyInterval>& intervals) {
  HeaviestUserSummary s;
  s.busy_intervals = static_cast<int>(intervals.size());
  if (intervals.empty()) {
    return s;
  }
  int solo = 0;
  double share_sum = 0.0;
  double users_sum = 0.0;
  for (const BusyInterval& bi : intervals) {
    share_sum += bi.heaviest_share;
    users_sum += bi.distinct_users;
    if (bi.heaviest_share > 0.9) {
      ++solo;
    }
  }
  s.mean_heaviest_share = share_sum / static_cast<double>(intervals.size());
  s.solo_saturation_fraction = static_cast<double>(solo) / static_cast<double>(intervals.size());
  s.mean_distinct_users = users_sum / static_cast<double>(intervals.size());
  return s;
}

}  // namespace tbf::trace

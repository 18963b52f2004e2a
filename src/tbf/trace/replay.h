// Trace replay: turn a frame-level trace::TraceLog into a scenario workload.
//
// The generators (and the TraceSniffer on a live medium) produce per-frame records; an
// application-level replay wants *transfers* - "node n started pulling B bytes at time
// t". TraceReplaySource recovers that structure the way trace studies do: per (node,
// direction), frames closer together than a gap threshold belong to one transfer, a
// longer silence starts the next. scenario::Wlan replays the result
// with its restartable finite-task sources (FlowSpec model kTraceReplay): each transfer
// launches at its logged offset - or when the node's previous transfer completes,
// whichever is later (a cell slower than the capture backlogs the user rather than
// overlapping their transfers) - and delivers exactly its logged bytes.
//
// Byte accounting: a transfer's size is the sum of its records' on-air frame bytes
// (after the retry/success filters below), replayed as application payload. The replay
// preserves the capture's byte volume and arrival structure; it does not try to undo
// the capture's MAC/IP framing, which the simulator re-adds on its own.
#ifndef TBF_TRACE_REPLAY_H_
#define TBF_TRACE_REPLAY_H_

#include <vector>

#include "tbf/trace/trace.h"

namespace tbf::trace {

// One application transfer recovered from the trace: `at` is the first frame's
// timestamp (absolute trace time), `bytes` the transfer's total payload.
struct ReplayTask {
  TimeNs at = 0;
  int64_t bytes = 0;

  friend bool operator==(const ReplayTask&, const ReplayTask&) = default;
};

// All of one node's transfers in one direction, in trace order.
struct ReplayFlow {
  NodeId node = kInvalidNodeId;
  bool downlink = false;
  std::vector<ReplayTask> tasks;
  int64_t total_bytes = 0;  // Sum of tasks[i].bytes: what a replay must deliver.

  friend bool operator==(const ReplayFlow&, const ReplayFlow&) = default;
};

struct ReplayOptions {
  // Frames of one (node, direction) farther apart than this start a new transfer
  // (think-time threshold; the generators' think times are seconds-scale).
  TimeNs task_gap = Ms(500);
  // Retransmitted frames re-carry bytes the original already counted; skip them by
  // default so the replayed volume is the offered load, not the on-air load.
  bool include_retries = false;
  // Skip frames the capture marked as failed (no ack seen).
  bool include_failures = false;
  // Drop transfers that start at or after this trace time; 0 = replay everything.
  // Lets long captures (hours) be audited by replaying a prefix.
  TimeNs horizon = 0;
};

// Consumes a TraceLog and exposes the per-flow transfer schedule recovered from it.
class TraceReplaySource {
 public:
  explicit TraceReplaySource(const TraceLog& log, ReplayOptions options = {});

  const std::vector<ReplayFlow>& flows() const { return flows_; }
  const ReplayOptions& options() const { return options_; }

  // Sum over flows of the bytes a faithful replay delivers.
  int64_t total_bytes() const { return total_bytes_; }
  // Latest transfer start time; a replaying scenario's duration must cover this plus
  // however long the final transfers take in the simulated cell.
  TimeNs last_arrival() const { return last_arrival_; }

 private:
  ReplayOptions options_;
  std::vector<ReplayFlow> flows_;
  int64_t total_bytes_ = 0;
  TimeNs last_arrival_ = 0;
};

}  // namespace tbf::trace

#endif  // TBF_TRACE_REPLAY_H_

// Result records returned by scenario runs.
#ifndef TBF_SCENARIO_RESULTS_H_
#define TBF_SCENARIO_RESULTS_H_

#include <cmath>
#include <map>
#include <vector>

#include "tbf/stats/engine.h"
#include "tbf/stats/quantile_sketch.h"
#include "tbf/util/units.h"

namespace tbf::scenario {

// Streaming percentile readout of one latency meter. Values come from the run's
// QuantileSketch, so each percentile is within the sketch's documented relative error
// (default 1%) of the exact empirical quantile. All zero when the meter saw no samples.
struct LatencySummary {
  int64_t count = 0;
  TimeNs p50 = 0;
  TimeNs p95 = 0;
  TimeNs p99 = 0;

  friend bool operator==(const LatencySummary&, const LatencySummary&) = default;

  static LatencySummary FromSketch(const stats::QuantileSketch& sketch) {
    LatencySummary out;
    out.count = sketch.count();
    if (out.count > 0) {
      double q[3];
      sketch.Quantiles3(0.50, 0.95, 0.99, q);
      out.p50 = static_cast<TimeNs>(std::llround(q[0]));
      out.p95 = static_cast<TimeNs>(std::llround(q[1]));
      out.p99 = static_cast<TimeNs>(std::llround(q[2]));
    }
    return out;
  }

  double P50Ms() const { return ToMillis(p50); }
  double P95Ms() const { return ToMillis(p95); }
  double P99Ms() const { return ToMillis(p99); }
};

struct FlowResult {
  int flow_id = -1;
  NodeId client = kInvalidNodeId;
  bool tcp = true;
  int64_t bytes_delivered = 0;   // Payload bytes within the measurement window.
  double goodput_bps = 0.0;
  // Task flows: completion of the last finished task, measured from the flow's actual
  // start (start spec + any CBR stagger), so values are warmup- and stagger-
  // independent; -1 if no task finished.
  TimeNs completion_time = -1;
  // Every finished task's completion, relative to the flow's actual start, in finish
  // order. Task-sequence and on/off flows report one entry per completed transfer.
  std::vector<TimeNs> task_completions;
  // Per-task transfer latency: completion minus the moment that task's transfer began
  // (think/gap time excluded). For back-to-back sequences these sum to the last
  // completion; for on/off flows they are the user-visible download times. Trace-replay
  // tasks anchor at their *logged* due time instead of the actual launch, so a replay
  // backlogged by a slow policy charges the user's waiting time to the transfer
  // (sojourn time) rather than silently excluding it.
  std::vector<TimeNs> task_durations;
  int64_t retransmits = 0;
  int64_t timeouts = 0;

  // Whether this flow's exact tier (task vectors, per-flow sketches) covers its whole
  // run. Always true under exact retention. Under sampled retention
  // (StatsConfig::top_k > 0) it is false for counted-tier-only flows - their summaries
  // carry the sample count but zero percentiles - and for flows promoted into the
  // top-K mid-run, whose percentiles cover only the post-promotion samples.
  bool exact = true;

  // Per-flow latency percentiles, metered over the whole run (tasks routinely span the
  // warmup boundary, so latency meters are not windowed the way goodput is):
  //  rtt          - raw TCP RTT samples at the sender (Karn-filtered; empty for UDP).
  //  queue_delay  - AP qdisc residency of this flow's packets: downlink data for
  //                 downlink flows, returning acks for uplink TCP flows (TBR's
  //                 ack-withholding lever measured directly).
  //  task_latency - per-task transfer durations (same samples as task_durations;
  //                 trace-replay tasks measure sojourn from their logged arrival).
  LatencySummary rtt;
  LatencySummary queue_delay;
  LatencySummary task_latency;

  // Exact (bitwise on doubles) equality - sweep determinism checks compare a parallel
  // run's Results against the serial run's, which must match exactly, not approximately.
  friend bool operator==(const FlowResult&, const FlowResult&) = default;
};

struct Results {
  // Per wireless client, measured over the window.
  std::map<NodeId, double> goodput_bps;
  std::map<NodeId, double> airtime_share;
  double aggregate_bps = 0.0;
  double utilization = 0.0;  // Fraction of the window the channel carried energy.
  std::vector<FlowResult> flows;

  // Table 1 efficiency measures over the completed tasks of kBulk/kTaskSequence flows:
  // the packet-level counterparts of model::TaskOutcome's avg/final task times. Each
  // task is scored by its flow's cumulative transfer time (task_gap idle excluded, so
  // the numbers mirror the fluid model's gap-free schedule; identical to the completion
  // offsets for back-to-back sequences). On/off flows are excluded - their timelines
  // are mostly think time; use their per-flow task_durations instead. 0 when no such
  // task finished. tasks_completed counts every flow's finished tasks.
  double avg_task_time_sec = 0.0;
  double final_task_time_sec = 0.0;
  int64_t tasks_completed = 0;

  int64_t mac_collisions = 0;
  int64_t mac_exchanges = 0;
  int64_t ap_drops = 0;

  // Cell-wide latency percentiles (every flow's meter merged) plus the merged sketches
  // themselves, so benches can pool cells across seeds - sketch merges are commutative
  // and associative, hence deterministic in any pooling order - and read percentiles
  // from the pooled distribution instead of averaging per-cell percentiles.
  LatencySummary rtt;
  LatencySummary ap_queue_delay;
  LatencySummary task_latency;
  stats::QuantileSketch rtt_sketch;
  stats::QuantileSketch ap_queue_delay_sketch;
  stats::QuantileSketch task_latency_sketch;

  // Interval-percentile time series of the same three meters (empty unless the run
  // configured StatsConfig::window > 0): one WindowStat per sealed window in which the
  // meter saw samples. For a sharded campus the per-cell series covers samples the
  // cell's shard observed; the campus-wide series in CampusResults covers everything.
  stats::MeterSeries rtt_series;
  stats::MeterSeries ap_queue_delay_series;
  stats::MeterSeries task_latency_series;
  // Windowed goodput: delivered payload bytes per sealed window (same windowing as the
  // latency series), so scheduler races can gate on throughput over time, not just
  // latency percentiles.
  stats::ByteSeries goodput_series;

  friend bool operator==(const Results&, const Results&) = default;

  double GoodputMbps(NodeId client) const {
    auto it = goodput_bps.find(client);
    return it == goodput_bps.end() ? 0.0 : it->second / 1e6;
  }
  double AggregateMbps() const { return aggregate_bps / 1e6; }
  double AirtimeShare(NodeId client) const {
    auto it = airtime_share.find(client);
    return it == airtime_share.end() ? 0.0 : it->second;
  }
};

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_RESULTS_H_

// Declarative multi-AP campus: several single-cell WLANs joined by a wired backbone.
//
// A campus is a list of BSSes - each one a full single-cell scenario (stations + flows,
// sharing the campus-wide ScenarioConfig) - plus the backbone links that carry every
// flow's wired leg to/from the central server. The campus is the unit the sharded
// simulator (shard::CampusSim) partitions: one shard per BSS plus one for the wired
// core, with the minimum backbone one-way latency as the conservative lookahead window.
// That is why validation rejects a zero backbone delay: no latency means no lookahead
// horizon, and the shards could not run a window ahead of each other.
#ifndef TBF_SCENARIO_CAMPUS_H_
#define TBF_SCENARIO_CAMPUS_H_

#include <string>
#include <vector>

#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"

namespace tbf::scenario {

// One BSS: an AP with its stations and their flows. Station ids and flow client ids are
// cell-local (each BSS has its own id space, exactly like a standalone Wlan); flow ids
// are assigned campus-wide in declaration order so results stay comparable across
// shardings.
struct BssSpec {
  std::vector<StationSpec> stations;
  std::vector<FlowSpec> flows;
  // One-way propagation delay of this BSS's backbone link; -1 inherits
  // CampusConfig::backbone_delay. Must be > 0 (it bounds the lookahead window).
  TimeNs backbone_delay = -1;

  friend bool operator==(const BssSpec&, const BssSpec&) = default;
};

struct CampusConfig {
  // Per-cell scenario knobs shared by every BSS (qdisc, TBR, warmup/duration).
  // `cell.seed` seeds the campus: cell i derives seed + 1 + i, the wired core uses seed
  // itself, so per-cell streams are independent and reproducible. Each cell's wired leg
  // is its backbone link (rate and queue fixed in shard/campus_sim.cpp), not the single
  // cell's wired hop.
  ScenarioConfig cell;
  TimeNs backbone_delay = Us(500);  // One-way; must be > 0.

  friend bool operator==(const CampusConfig&, const CampusConfig&) = default;
};

// Validates the whole campus: each BSS must pass ValidateScenario with the shared cell
// config, every backbone delay must be strictly positive (zero would collapse the
// conservative lookahead window to nothing), and UDP flows must be kBulk - finite UDP
// task chains complete at the sink, which in a sharded campus lives in the opposite
// shard from the source, and restarting the source from there would need a
// cross-shard control channel the conservative protocol does not provide.
// Returns an empty string when valid, else a one-line diagnostic.
std::string ValidateCampus(const CampusConfig& config, const std::vector<BssSpec>& bss);

// Campus-wide readout: one Results per BSS (same shape a standalone Wlan would return)
// plus the cross-cell aggregates and the sharding telemetry.
struct CampusResults {
  std::vector<Results> cells;

  double aggregate_bps = 0.0;         // Sum of all cells' aggregate goodput.
  int64_t tasks_completed = 0;
  int64_t mac_exchanges = 0;
  int64_t mac_collisions = 0;

  // Campus-wide latency distributions (merged across cells).
  LatencySummary rtt;
  LatencySummary ap_queue_delay;
  LatencySummary task_latency;
  stats::QuantileSketch rtt_sketch;
  stats::QuantileSketch ap_queue_delay_sketch;
  stats::QuantileSketch task_latency_sketch;

  // Campus-wide interval-percentile series (empty unless cell.stats.window > 0): per
  // window, every shard's sealed sketch merged at the barrier in fixed cell order -
  // bit-identical for any TBF_SHARD_THREADS like everything else here.
  stats::MeterSeries rtt_series;
  stats::MeterSeries ap_queue_delay_series;
  stats::MeterSeries task_latency_series;
  // Campus-wide windowed goodput: bytes delivered per sealed window across every
  // shard, folded at the same barriers as the latency series (exact integer sums).
  stats::ByteSeries goodput_series;

  // Sharding telemetry (identical for every shard-thread count by construction).
  TimeNs lookahead = 0;               // Conservative window: min one-way backbone delay.
  int64_t windows = 0;                // Lock-step windows executed.
  int64_t cross_shard_packets = 0;    // Packets that crossed a shard boundary.
  int64_t backbone_drops = 0;         // Backbone queue overflows (both directions).

  friend bool operator==(const CampusResults&, const CampusResults&) = default;
};

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_CAMPUS_H_

// StatsEngine: bounded-memory run metrology behind a narrow recording API.
//
// Every scenario layer (single-cell Wlan, the sharded CampusSim, sweep jobs) records
// its latency samples and delivered bytes through one StatsEngine per shard instead of
// pushing into grow-forever per-flow vectors. The engine bounds readout memory with
// three mechanisms, each independently configurable via StatsConfig:
//
//  1. Interval percentiles. With `window > 0`, samples land in a time-windowed ring of
//     QuantileSketches keyed by floor(now / window). Sealed windows (everything whose
//     end has passed) fold into the engine's whole-run meter, emit one WindowStat
//     (count + p50/p95/p99) into the meter's series, and free their sketch - so long
//     runs report a percentile *time series* in O(windows) small structs plus O(open
//     windows) sketches, not O(samples). With `window == 0` the whole run is one
//     window (no series).
//
//  2. Sampled per-flow retention. With `top_k > 0`, exact per-flow state (task vectors
//     + per-flow sketches) is kept only for the current top-K heaviest flows by
//     delivered bytes - tracked by a space-saving (Misra-Gries) counter, so any flow
//     with true bytes > total/K is guaranteed a slot and every estimate overshoots by
//     at most total/K (tests/stats_engine_test.cpp pins both bounds the way
//     quantile_test.cpp pins the sketch) - plus a seeded uniform 1-in-`sample_every`
//     flow sample whose retention is pinned (never evicted). Every other flow keeps
//     counted tier only: counts, sums, last completion. A flow promoted into the top-K
//     mid-run starts its exact tier from that moment (earlier samples live only in the
//     engine-wide meters); FlowResult::exact flags whether a flow's percentiles cover
//     its whole run. With `top_k <= 0` every flow is retained exactly.
//
//  3. Per-shard merge trees. Each shard records into its own engine with zero shared
//     state; the coordinator, at its barriers, calls SealWindowsUpTo(t, &parent) on
//     each child in a fixed order and then seals the parent. Sealed child windows merge
//     into the parent's open window of the same index (sketch merges are commutative
//     and associative), so the campus-wide series and whole-run meters are bit-identical
//     for any TBF_SHARD_THREADS - the merge order is fixed by the caller, never by
//     thread scheduling.
//
// The default config (window == 0, top_k <= 0) is exact retention in one implicit
// window: every flow keeps its exact tier, so each engine-wide meter equals the merge
// of the per-flow sketches bit for bit. The meters exist in every configuration.
//
// Not thread-safe: one engine per shard, records only from that shard's thread; merges
// only from the coordinator at barriers. See docs/metrology.md.
#ifndef TBF_STATS_ENGINE_H_
#define TBF_STATS_ENGINE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "tbf/stats/quantile_sketch.h"
#include "tbf/util/units.h"

namespace tbf::stats {

// Metrology policy for one run: two independent settings, the series window and
// top-K retention. The default is exact retention with no series.
struct StatsConfig {
  // Interval-percentile window width. > 0: samples bucket into floor(now/window)
  // windows and sealed windows emit a WindowStat series. 0: whole run is one window.
  TimeNs window = 0;
  // > 0: exact per-flow retention only for the top-K heaviest flows (by bytes recorded
  // through this engine) plus the uniform sample; counted tier for the rest.
  // <= 0: every flow retained exactly.
  int top_k = 0;
  // With top_k > 0: additionally retain a seeded uniform 1-in-N flow sample, pinned
  // (never evicted). 0 disables the sample.
  int sample_every = 0;
  uint64_t sample_seed = 1;

  friend bool operator==(const StatsConfig&, const StatsConfig&) = default;
};

// One sealed interval of one meter: sample count and latency percentiles of the
// window [start, start + series.window).
struct WindowStat {
  TimeNs start = 0;
  int64_t count = 0;
  TimeNs p50 = 0;
  TimeNs p95 = 0;
  TimeNs p99 = 0;

  friend bool operator==(const WindowStat&, const WindowStat&) = default;
};

// Percentile time series of one meter: sealed windows ascending by start. Windows in
// which the meter saw no samples are omitted. Empty when the run was not windowed.
struct MeterSeries {
  TimeNs window = 0;
  std::vector<WindowStat> windows;

  friend bool operator==(const MeterSeries&, const MeterSeries&) = default;
};

// One sealed interval of the byte meter: deliveries and payload bytes recorded in
// [start, start + series.window). Goodput over the window is bytes / window - exact
// integer sums, so sharded merges are trivially bit-identical.
struct ByteWindow {
  TimeNs start = 0;
  int64_t count = 0;
  int64_t bytes = 0;

  friend bool operator==(const ByteWindow&, const ByteWindow&) = default;
};

// Goodput time series: sealed byte windows ascending by start. Windows in which no
// bytes were recorded are omitted. Empty when the run was not windowed - the latency
// meters' MeterSeries contract, applied to throughput.
struct ByteSeries {
  TimeNs window = 0;
  std::vector<ByteWindow> windows;

  friend bool operator==(const ByteSeries&, const ByteSeries&) = default;
};

// The three run meters. Values are TimeNs samples (see FlowResult for semantics).
enum MeterKind { kTaskLatency = 0, kRtt = 1, kQueueDelay = 2 };
inline constexpr int kNumMeters = 3;

// Per-flow state. The counted tier (bytes, counts, sums, last completion) is always
// maintained; the exact tier (vectors + sketches) only while `retained`.
struct FlowStats {
  int flow_id = 0;  // 0 = unregistered slot.
  bool retained = false;
  bool sampled = false;  // Uniform-sample member: retention pinned.

  // Counted tier.
  int64_t bytes = 0;  // Delivered payload recorded through this engine.
  int64_t tasks = 0;
  TimeNs last_completion = -1;  // Absolute sim time; -1 = no task finished.
  int64_t rtt_count = 0;
  int64_t queue_count = 0;
  TimeNs rtt_sum = 0;
  TimeNs queue_sum = 0;
  TimeNs duration_sum = 0;

  // Exact tier (empty unless retained; a flow promoted mid-run starts here late).
  std::vector<TimeNs> task_completions;  // Absolute sim times.
  std::vector<TimeNs> task_durations;
  QuantileSketch rtt_sketch;
  QuantileSketch queue_delay_sketch;
  QuantileSketch task_latency_sketch;
};

class StatsEngine {
 public:
  explicit StatsEngine(StatsConfig config = {});

  // Declares a flow before any sample for it is recorded. Flow ids are positive and
  // dense per shard (an engine stores them in a base-offset vector, so a shard whose
  // flows occupy a contiguous id range pays only for its own flows). Registering the
  // same id twice is a no-op. Samples for unregistered ids are dropped.
  void RegisterFlow(int flow_id);

  // Recording API - called from the owning shard's thread only. Delivered bytes feed
  // the per-flow counted tier, the space-saving retention ranking, and - when the run
  // is windowed - the goodput time series.
  void RecordBytes(int flow_id, TimeNs now, int64_t bytes);
  void RecordTaskCompletion(int flow_id, TimeNs now, TimeNs duration);
  void RecordRtt(int flow_id, TimeNs now, TimeNs sample);
  void RecordQueueDelay(int flow_id, TimeNs now, TimeNs delay);

  // Seals every window whose end is <= now: folds it into the whole-run meter, appends
  // its WindowStat to the series, forwards the sketch into `parent`'s open window of
  // the same index (parent must share this engine's window width), and frees it.
  // Coordinator-only; the caller fixes the merge order (children in a fixed order,
  // then the parent), which is what keeps sharded runs bit-identical.
  void SealWindowsUpTo(TimeNs now, StatsEngine* parent = nullptr);

  // End-of-run: seals every open window including the partial last one. Unwindowed
  // (window == 0), this instead folds the whole-run meters into the parent. Call on
  // children (fixed order) before the parent.
  void FlushAll(StatsEngine* parent = nullptr);

  // With auto-seal on, opening a new (later) window seals every older one immediately
  // with no parent. Only valid for engines that are not merge-tree children (sealed
  // windows can no longer be forwarded) and whose samples arrive in nondecreasing
  // window order - i.e. a single-cell run. Keeps open-sketch memory O(1) instead of
  // O(run length / window).
  void SetAutoSeal(bool on) { auto_seal_ = on; }

  // Whole-run meter distribution, covering every sample recorded through this engine
  // and its merge-tree children, in every configuration. Under exact retention it
  // equals the merge of the per-flow sketches bit for bit.
  const QuantileSketch& meter(MeterKind kind) const { return meters_[kind].whole; }

  // Percentile time series of sealed windows (empty when window == 0 or before any
  // seal). Stable across shard counts by the seal-order contract above.
  MeterSeries series(MeterKind kind) const;

  // Goodput time series of sealed byte windows; same windowing, sealing, and
  // merge-order contract as the latency series (byte sums are exact, so the campus
  // series is bit-identical for any shard count by construction).
  ByteSeries bytes_series() const;

  // Per-flow readout; nullptr when the id was never registered here.
  const FlowStats* flow(int flow_id) const;

  // Space-saving table readout: true when the flow currently holds a top-K slot, with
  // its byte estimate and the estimate's maximum overcount. For any flow,
  // estimate - overcount <= true bytes <= estimate, and overcount <= total/K.
  bool HeavyEstimate(int flow_id, int64_t* estimate, int64_t* overcount) const;

  int64_t total_bytes() const { return total_bytes_; }
  const StatsConfig& config() const { return config_; }

  // Bytes currently held by metrology state: per-flow tiers, open-window sketches,
  // whole-run meters, sealed series, retention table. The number windowing and top-K
  // retention exist to bound; bench_campus_scale reports it per row.
  size_t MemoryFootprintBytes() const;

 private:
  struct OpenWindow {
    int64_t index = 0;
    QuantileSketch sketch;
  };
  // One meter: whole-run distribution, open (unsealed) windows ascending by index,
  // sealed series.
  struct Meter {
    QuantileSketch whole;
    std::deque<OpenWindow> open;
    std::vector<WindowStat> sealed;
  };
  struct HeavyEntry {
    int flow_id = 0;
    int64_t estimate = 0;
    int64_t overcount = 0;
  };
  // Open (unsealed) byte window; index * window = start.
  struct OpenBytes {
    int64_t index = 0;
    int64_t count = 0;
    int64_t bytes = 0;
  };

  FlowStats* MutableFlow(int flow_id);
  // Records one sample in the meter and, when not null, in the flow's sketch.
  void AddSample(MeterKind kind, TimeNs now, double value, QuantileSketch* flow_sketch);
  void AddBytes(TimeNs now, int64_t bytes);
  QuantileSketch& OpenAt(Meter& m, int64_t index);
  OpenBytes& OpenBytesAt(int64_t index);
  void SealMeter(MeterKind kind, int64_t limit_index, StatsEngine* parent);
  void SealBytes(int64_t limit_index, StatsEngine* parent);
  void NoteBytesForRetention(FlowStats& fs, int64_t bytes);
  void DropExactTier(FlowStats& fs);
  static uint64_t Mix(uint64_t seed, uint64_t flow_id);

  StatsConfig config_;
  bool auto_seal_ = false;

  // Per-flow state, indexed by flow_id - base_ (base_ = smallest registered id).
  std::vector<FlowStats> flows_;
  std::vector<int32_t> heavy_slot_;  // Parallel to flows_: slot in heavy_, or -1.
  int base_ = 0;

  std::vector<HeavyEntry> heavy_;  // Space-saving table, <= top_k entries.
  int64_t total_bytes_ = 0;

  Meter meters_[kNumMeters];
  // Byte meter: open windows ascending by index, sealed goodput series.
  std::deque<OpenBytes> bytes_open_;
  std::vector<ByteWindow> bytes_sealed_;
};

}  // namespace tbf::stats

#endif  // TBF_STATS_ENGINE_H_

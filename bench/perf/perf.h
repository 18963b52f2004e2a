// tbf_perf: the host-performance benchmark of the tbf simulator.
//
// The program drives the library from outside, through public APIs only, on four
// workloads chosen so that a different layer does most of the work in each (see
// README.md). A run repeats one fixed-size rep of its workload until the requested
// wall time is used up and reports every rep, so the caller can take medians. A traced
// run (--trace 1) additionally times the calls into each layer as spans and reads each
// layer's deterministic counters.
#ifndef TBF_BENCH_PERF_PERF_H_
#define TBF_BENCH_PERF_PERF_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"

namespace tbf::perf {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Everything a workload needs to know about the run it is part of.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // Wall time the timed reps may use.
  bool trace = false;
  int threads = 1;        // min(4, hardware threads): the busy-thread budget.
  std::string spans_path;
  std::string run_tag;
};

// One span: a call into a layer, timed from outside. `events` is the simulator event
// count of a stepped slice and `count` the number of calls a batch span covers; both
// are -1 when they do not apply.
struct SpanRecord {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t events = -1;
  int64_t count = -1;
};

// In-memory span store, written out as JSONL when the run ends. Thread-safe: sweep
// jobs record from pool threads.
class Tracer {
 public:
  int64_t Begin(std::string_view name, int64_t parent);
  void End(int64_t id, int64_t events = -1, int64_t count = -1);

  std::vector<SpanRecord> Snapshot() const;
  bool WriteJsonl(const RunOptions& options) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // Index = id - 1.
  Clock::time_point origin_ = Clock::now();
};

// RAII span; a null tracer records nothing, so untraced reps share the code path.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, int64_t parent = 0)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, parent) : 0) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return id_; }
  void Close(int64_t events = -1, int64_t count = -1) {
    if (tracer_ != nullptr && id_ != 0) {
      tracer_->End(id_, events, count);
      id_ = 0;
    }
  }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Per span name: calls, summed duration, and summed self time (duration minus the
// union of its children's intervals).
struct SpanTotals {
  int64_t calls = 0;
  int64_t events = 0;
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<SpanRecord>& spans);

double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);
double PeakRssMb();

// Host counters of one single-cell run, read through Wlan's public getters.
struct CellCounters {
  int64_t events = 0;  // Only known when the run was stepped from outside.
  int64_t event_slots = 0;
  int64_t exchanges = 0;
  int64_t retries = 0;  // Exchanges that were retransmissions (MediumObserver).
  int64_t ifs_updates = 0;
  int64_t deadline_rescans = 0;
  int64_t reschedules_skipped = 0;
  int64_t uplink_rx = 0;  // Uplink data frames the AP received (MediumObserver).
  int64_t pool_slots = 0;
  int64_t pool_live_end = 0;
  int64_t stats_bytes = 0;

  void Add(const CellCounters& other);
  // The counters a traced run must reproduce exactly.
  bool SameDynamics(const CellCounters& other) const;
};

// What one run reports. `reps` holds one sample per timed rep for the time-based
// end-to-end metrics; `values` holds everything measured once per run.
struct Report {
  std::map<std::string, std::vector<double>> reps;
  std::map<std::string, double> values;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks;
  uint64_t digest = 0;
  // Filled once, from every span of the run, after the workload returns.
  std::map<std::string, SpanTotals> spans;
  // Host counters of one traced rep of a single-cell workload (summed over its cells);
  // the cell per-layer metrics are computed from them and `spans`.
  std::optional<CellCounters> traced_cells;

  // Records a check and the number of ops that failed it (a failed run-level check
  // counts as one failed op).
  void AddCheck(std::string name, int64_t failures, std::string detail = "");
  void AddRep(double run_s, double setup_s, double sim_s, int64_t exchanges);
};

// 64-bit FNV-1a over a stream of integers: the dynamics digest.
class Fnv {
 public:
  void Add(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= static_cast<uint64_t>(v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Outcomes that only depend on the whole run (task completions, retransmissions, MAC
// and AP totals, latency sample counts) - identical whether a run is stepped from
// outside or not.
void AddWholeRunOutcomes(const scenario::Results& results, Fnv* fnv);
// Whole-run outcomes plus the measured-window byte counts.
void AddOutcomes(const scenario::Results& results, Fnv* fnv);

// Jain's fairness index of the declared stations' airtime shares (1 = equal shares).
double AirtimeJain(const scenario::Results& results,
                   const std::vector<scenario::StationSpec>& stations);

// Builds and runs one single cell. Untraced: BuildNow, then Run. Traced: BuildNow,
// then Simulator::RunUntil in 1% slices of the horizon (one span each, carrying its
// event count), then Wlan::Run, which then only reads out. Stepping past the warmup
// from outside moves Wlan::Run's warmup snapshot to the end of the run, so a traced
// run's measured-window fields (bytes, goodput, airtime shares) are not meaningful;
// every whole-run outcome is identical to the untraced run's.
struct CellRun {
  scenario::Results results;
  CellCounters counters;
  double build_s = 0.0;
};
CellRun RunCell(const scenario::ScenarioConfig& config,
                const std::vector<scenario::StationSpec>& stations,
                const std::vector<scenario::FlowSpec>& flows, Tracer* tracer,
                int64_t parent_span);

// Seeded input generation. Independent of the library's own RNG, so a change to the
// library cannot change the inputs it is measured on.
class InputRng {
 public:
  InputRng(uint64_t seed, uint64_t stream)
      : engine_(seed * 0x9e3779b97f4a7c15ull ^ stream) {}
  // Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return engine_() % n; }
  uint64_t Next() { return engine_(); }
  // Fisher-Yates with Below(); std::shuffle's draw sequence is implementation-defined.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

// One cell's results with the stations it declared.
struct CellView {
  const scenario::Results* results;
  const std::vector<scenario::StationSpec>* stations;
};

// Simulated outcomes (goodput_mbps, airtime_jain, transfer_p95_s) and the per-layer
// metrics any Results carries (MAC, AP, transport and stats totals), over all cells.
void AddOutcomeMetrics(const std::vector<CellView>& cells, Report* report);

// Per-layer metrics only a traced single-cell run sees: report->traced_cells and the
// kernel, build and readout times in report->spans.
void AddCellTraceMetrics(Report* report);

// Runs repeatedly until `seconds` of wall time is used, at least `min_reps` times.
template <typename F>
void RepeatFor(double seconds, int min_reps, F&& rep) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_reps || SecondsBetween(start, Clock::now()) < seconds; ++i) {
    rep();
  }
}

// Wall times and work of one rep.
struct RepTimes {
  double run_s = 0.0;
  double setup_s = 0.0;
  double sim_s = 0.0;  // Simulated seconds the rep covered, summed over its cells.
  int64_t exchanges = 0;
};

// Runs the timed reps: `rep(tracer, parent_span)` runs one rep and returns its times.
// Untraced runs spend the whole budget on untraced reps. Traced runs spend half on
// untraced reps, whose counters the traced half must reproduce, and half on traced
// reps; the ratio of their median run times is the tracing overhead. Peak memory is
// read right after the untraced reps, before any reference run a workload makes.
template <typename F>
void RunReps(const RunOptions& options, Tracer* tracer, int min_reps, Report* report,
             F&& rep) {
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  RepeatFor(untraced_s, options.trace ? 1 : min_reps, [&] {
    const RepTimes t = rep(nullptr, 0);
    report->AddRep(t.run_s, t.setup_s, t.sim_s, t.exchanges);
  });
  report->values["peak_rss_mb"] = PeakRssMb();
  if (!options.trace) {
    return;
  }
  std::vector<double> traced_run_s;
  RepeatFor(options.seconds / 2, 1, [&] {
    Span span(tracer, "rep");
    traced_run_s.push_back(rep(tracer, span.id()).run_s);
  });
  report->values["bench.trace_overhead_frac"] =
      Median(traced_run_s) / Median(report->reps["run_s"]) - 1.0;
}

// The workloads. Each fills `report`; `tracer` is null in untraced runs.
void RunCellLarge(const RunOptions& options, Tracer* tracer, Report* report);
void RunReplayGrid(const RunOptions& options, Tracer* tracer, Report* report);
void RunCampusSharded(const RunOptions& options, Tracer* tracer, Report* report);
void RunCampaignGrid(const RunOptions& options, Tracer* tracer, Report* report);

}  // namespace tbf::perf

#endif  // TBF_BENCH_PERF_PERF_H_

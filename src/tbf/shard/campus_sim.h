// Conservative multi-AP parallel simulation: one shard per BSS plus a wired core.
//
// CampusSim partitions a scenario::CampusConfig + BssSpec list into shards, each owning
// its own Simulator, PacketPool, Rng and dense per-node state - a scenario::CellStack
// for every BSS, and one core shard holding the server side of every flow. The
// shards share no mutable state: all cross-shard traffic is flattened into value
// records (shard/mailbox.h) by ShardLinks and re-materialized from the destination
// shard's pool, so refcounts stay non-atomic and TSan sees only the window barrier.
//
// Time advances in lock-step windows of width W = the minimum one-way backbone latency
// (the lookahead). Every shard runs (t, t+W] independently - in parallel when
// shard threads are available - then the coordinator drains all mailboxes in a fixed
// order and schedules the deliveries. A packet sent at s > t arrives at
// s + serialization + L > t + W, i.e. strictly after the next barrier, so barrier-time
// scheduling never lands in a shard's past and no rollback is ever needed.
//
// Determinism: shard interiors are sequential discrete-event runs; mailbox contents
// depend only on shard state; and the coordinator drains mailboxes in a fixed order
// (per cell ascending: core->cell first, then cell->core), so equal-timestamp delivery
// events always carry the same schedule sequence numbers. Results are therefore
// bit-identical for any shard-thread count and any thread schedule - the
// Golden.bench_campus_scale ctest diffs the campus bench output against its golden
// at TBF_SHARD_THREADS=1/2/3/4 to hold that line.
#ifndef TBF_SHARD_CAMPUS_SIM_H_
#define TBF_SHARD_CAMPUS_SIM_H_

#include <memory>
#include <vector>

#include "tbf/scenario/campus.h"

namespace tbf::shard {

class CampusSim {
 public:
  // `threads` <= 0 selects DefaultShardThreads(). The count is clamped to the number
  // of shards at build time; 1 runs every window serially on the calling thread.
  explicit CampusSim(scenario::CampusConfig config, int threads = 0);
  ~CampusSim();

  CampusSim(const CampusSim&) = delete;
  CampusSim& operator=(const CampusSim&) = delete;

  // Declaration phase (before Run).
  scenario::BssSpec& AddBss(scenario::BssSpec bss);

  // Builds every shard, runs warmup + duration in lock-step windows, and returns the
  // campus readout. Throws scenario::ScenarioError on an invalid declaration.
  scenario::CampusResults Run();

  // TBF_SHARD_THREADS when it reads as a positive count (capped at 64; zero, negative
  // and non-numeric values are ignored); else 1 inside a SweepRunner worker (the sweep
  // already owns the parallelism budget); else hardware concurrency.
  static int DefaultShardThreads();

  // Post-build introspection.
  TimeNs lookahead() const { return lookahead_; }
  int shard_count() const;
  int thread_count() const { return threads_; }

  // Bytes currently held by metrology across every shard engine plus the campus merge
  // tree - the readout-memory number the streaming StatsConfig modes bound
  // (bench_campus_scale reports it per row). Meaningful after Run().
  size_t MetrologyBytes() const;

 private:
  struct CellShard;
  struct CoreShard;
  class Pool;

  void Build();
  void RunWindows(TimeNs until);
  // Runs shard `index` (cells ascending, then the core) to `until`; returns the number
  // of events it fired.
  int64_t AdvanceShard(size_t index, TimeNs until);
  void DrainMailboxes();

  scenario::CampusConfig config_;
  std::vector<scenario::BssSpec> bss_;
  int threads_;
  bool built_ = false;

  TimeNs t_ = 0;          // Barrier time: every shard's clock at the window boundary.
  TimeNs lookahead_ = 0;
  int64_t windows_ = 0;

  // The core is declared first so it outlives the cells: each cell's flows own the
  // server-side endpoints that run in the core's Simulator and pool.
  std::unique_ptr<CoreShard> core_;
  std::vector<std::unique_ptr<CellShard>> cells_;
  std::unique_ptr<Pool> pool_;
  // Root of the metrology merge tree: receives every shard's sealed windows at
  // barriers (coordinator thread only) and yields the campus-wide meters and series.
  stats::StatsEngine campus_stats_;
};

}  // namespace tbf::shard

#endif  // TBF_SHARD_CAMPUS_SIM_H_

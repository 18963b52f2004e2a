#include "tbf/shard/campus_sim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "tbf/scenario/cell_stack.h"
#include "tbf/scenario/flow_engine.h"
#include "tbf/shard/mailbox.h"
#include "tbf/shard/shard_link.h"
#include "tbf/sweep/sweep_runner.h"
#include "tbf/util/logging.h"

namespace tbf::shard {
namespace {

// Every backbone link, in each direction: 1 Gbit/s with a 4096-packet queue.
constexpr BitRate kBackboneRate = Mbps(1000);
constexpr size_t kBackboneQueueLimit = 4096;

}  // namespace

// One BSS shard: a scenario::CellStack in the shard's own Simulator and PacketPool,
// its backbone uplink into the core's mailbox, and the flows of its stations. The pool
// is declared right after the Simulator so it outlives every component that can hold
// packets, mirroring scenario::Wlan's member order.
struct CampusSim::CellShard {
  CellShard(const scenario::ScenarioConfig& cell, const scenario::BssSpec& bss,
            uint64_t seed, TimeNs delay)
      : uplink(&sim, &to_core, kBackboneRate, delay, kBackboneQueueLimit),
        stack(cell, bss.stations, seed, &sim, &pool,
              [up = &uplink](net::PacketPtr p) { up->Send(std::move(p)); }) {}

  sim::Simulator sim;
  net::PacketPool pool;
  Mailbox to_core;  // Written only by `uplink` during this cell's window.
  ShardLink uplink;  // Cell -> core backbone direction.
  // The stack's stats engine is written only by the cell's thread during windows and
  // sealed into the campus engine by the coordinator at barriers.
  scenario::CellStack stack;
  // This cell's flows in flow-id order. Their server ends run in the core shard;
  // their delivered-bytes counters are read by the coordinator only at barriers.
  scenario::FlowList flows;
};

// The wired core shard: the server end of every flow. There is no medium here - just
// the transports, reached through the core demux, and one downlink ShardLink per cell.
struct CampusSim::CoreShard {
  explicit CoreShard(const scenario::ScenarioConfig& cell)
      : rng(cell.seed), stats(cell.stats) {}

  sim::Simulator sim;
  net::PacketPool pool;
  sim::Rng rng;
  net::Demux demux;
  std::vector<Mailbox> to_cell;  // [i] written only by downlinks[i] during core windows.
  std::vector<std::unique_ptr<ShardLink>> downlinks;

  // Core-side metrology: task/RTT meters of core-side engines plus delivered bytes of
  // flows whose receiver lives here. Same ownership rule as the cell engines.
  stats::StatsEngine stats;
};

namespace {

// Spin budget before a barrier waiter parks. A window costs tens of microseconds of
// shard work, so a waiter that spins this long almost always sees the next edge
// without a futex round-trip; on an oversubscribed host (ctest -j, sanitizers) it
// parks instead of burning a CPU the running shards need.
constexpr std::chrono::microseconds kSpinBudget{50};

// Windows between re-cuts of the slice bounds.
constexpr int64_t kRecutWindows = 256;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Waits until `word` no longer holds `old` and returns its new value: a bounded
// pause-spin, then a park on the word itself. Every 64 pauses the spinner also yields,
// so a thread it shares a CPU with (the one it is waiting for, on a busy host) can run.
uint32_t AwaitChange(const std::atomic<uint32_t>& word, uint32_t old) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (uint32_t spins = 1;; ++spins) {
    const uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) {
      return now;
    }
    if (spins % 64 == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        break;
      }
      std::this_thread::yield();
    } else {
      CpuRelax();
    }
  }
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

}  // namespace

// Persistent window pool: the calling thread runs slice 0 and `threads - 1` workers run
// the others. Slice k is the contiguous shard range [bounds_[k], bounds_[k+1]).
//
// A window opens with a release increment of `generation_` (after the coordinator has
// written the window end and any new bounds) and closes with an acq_rel countdown of
// `pending_`; those two edges order every shard's state between the coordinator's
// barrier work and whichever thread advances the shard next. Shards share no mutable
// state, so no further synchronization exists or is needed.
//
// Every kRecutWindows windows the coordinator re-cuts the bounds so each slice holds
// about the same number of fired events (the core shard alone can do the work of many
// cells): queued events and armed ticks, as RunUntil counts them, not the unarmed
// ticks it passes. A cut only changes which thread advances a shard, never what it
// computes.
class CampusSim::Pool {
 public:
  Pool(CampusSim* owner, int threads, size_t shards)
      : owner_(owner),
        slices_(static_cast<size_t>(threads)),
        bounds_(slices_ + 1),
        events_(shards, 0) {
    for (size_t k = 0; k <= slices_; ++k) {
      bounds_[k] = shards * k / slices_;
    }
    workers_.reserve(slices_ - 1);
    try {
      for (size_t k = 1; k < slices_; ++k) {
        workers_.emplace_back([this, k] { WorkerLoop(k); });
      }
    } catch (...) {
      StopWorkers();  // Threads already started must not outlive a failed constructor.
      throw;
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { StopWorkers(); }

  // Advances every shard to `until`; returns when all have arrived at the barrier.
  void RunWindow(TimeNs until) {
    if (++windows_ % kRecutWindows == 0) {
      Recut();
    }
    window_ = until;
    pending_.store(static_cast<uint32_t>(workers_.size()), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    RunSlice(0, until);
    for (uint32_t left = pending_.load(std::memory_order_acquire); left != 0;) {
      left = AwaitChange(pending_, left);
    }
  }

 private:
  void StopWorkers() {
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  void WorkerLoop(size_t slice) {
    uint32_t seen = 0;
    for (;;) {
      seen = AwaitChange(generation_, seen);
      if (stop_) {
        return;
      }
      RunSlice(slice, window_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_one();
      }
    }
  }

  void RunSlice(size_t slice, TimeNs until) {
    for (size_t shard = bounds_[slice]; shard < bounds_[slice + 1]; ++shard) {
      events_[shard] += owner_->AdvanceShard(shard, until);
    }
  }

  // Cuts the shard order into non-empty slices of roughly equal event counts since the
  // last cut (a shard joins the earlier slice when at least half of it falls before the
  // target), then restarts the counts.
  void Recut() {
    int64_t total = 0;
    for (const int64_t events : events_) {
      total += events;
    }
    if (total == 0) {
      return;
    }
    const size_t shards = events_.size();
    size_t shard = 0;
    int64_t before = 0;  // Events of shards [0, shard).
    for (size_t k = 1; k < slices_; ++k) {
      const int64_t target =
          total * static_cast<int64_t>(k) / static_cast<int64_t>(slices_);
      const size_t last = shards - (slices_ - k);  // Leave a shard for each later slice.
      before += events_[shard++];                  // Slice k - 1 takes at least one.
      while (shard < last && before + events_[shard] / 2 < target) {
        before += events_[shard++];
      }
      bounds_[k] = shard;
    }
    std::fill(events_.begin(), events_.end(), 0);
  }

  CampusSim* owner_;
  const size_t slices_;
  std::vector<size_t> bounds_;  // Written by the coordinator between windows only.
  std::vector<int64_t> events_;  // [i] written only by the thread advancing shard i.
  std::atomic<uint32_t> generation_{0};
  std::atomic<uint32_t> pending_{0};  // Workers still inside the current window.
  TimeNs window_ = 0;
  int64_t windows_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // Last: the threads use every member above.
};

CampusSim::CampusSim(scenario::CampusConfig config, int threads)
    : config_(config),
      threads_(threads > 0 ? std::min(threads, 64) : DefaultShardThreads()) {}

CampusSim::~CampusSim() = default;

int CampusSim::DefaultShardThreads() {
  if (const char* env = std::getenv("TBF_SHARD_THREADS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) {
      return std::min(n, 64);
    }
  }
  if (sweep::SweepRunner::InSweepWorker()) {
    return 1;  // The sweep already owns the machine's parallelism budget.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 64u));
}

scenario::BssSpec& CampusSim::AddBss(scenario::BssSpec bss) {
  TBF_CHECK(!built_) << "AddBss after Run";
  bss_.push_back(std::move(bss));
  return bss_.back();
}

int CampusSim::shard_count() const {
  return static_cast<int>((built_ ? cells_.size() : bss_.size()) + 1);
}

void CampusSim::Build() {
  TBF_CHECK(!built_);
  if (std::string err = scenario::ValidateCampus(config_, bss_); !err.empty()) {
    throw scenario::ScenarioError("invalid campus: " + err);
  }
  built_ = true;

  // The core seeds from the campus seed itself, cell i from seed + 1 + i, so every
  // shard draws an independent, reproducible stream.
  const scenario::ScenarioConfig& cc = config_.cell;
  core_ = std::make_unique<CoreShard>(cc);
  campus_stats_ = stats::StatsEngine(cc.stats);
  core_->to_cell.resize(bss_.size());  // Sized once: Mailbox addresses must be stable.

  // Every cell is built before any flow starts.
  lookahead_ = 0;
  cells_.reserve(bss_.size());
  for (size_t i = 0; i < bss_.size(); ++i) {
    const TimeNs delay =
        bss_[i].backbone_delay > 0 ? bss_[i].backbone_delay : config_.backbone_delay;
    lookahead_ = lookahead_ == 0 ? delay : std::min(lookahead_, delay);
    cells_.push_back(std::make_unique<CellShard>(
        cc, bss_[i], cc.seed + 1 + static_cast<uint64_t>(i), delay));
    core_->downlinks.push_back(std::make_unique<ShardLink>(
        &core_->sim, &core_->to_cell[i], kBackboneRate, delay, kBackboneQueueLimit));
  }

  int next_flow_id = 1;
  for (size_t i = 0; i < cells_.size(); ++i) {
    CellShard& cell = *cells_[i];
    ShardLink* down = core_->downlinks[i].get();
    const scenario::FlowSide server{
        &core_->sim, &core_->pool, &core_->rng, &core_->stats, &core_->demux,
        [down](net::PacketPtr p) { down->Send(std::move(p)); }};
    for (const scenario::FlowSpec& spec : bss_[i].flows) {
      cell.flows.push_back(scenario::StartFlow(
          spec, next_flow_id++, cell.stack.ClientSide(spec.client), server));
    }
  }

  threads_ = std::min(threads_, shard_count());
  if (threads_ > 1) {
    pool_ = std::make_unique<Pool>(this, threads_, cells_.size() + 1);
  }
}

int64_t CampusSim::AdvanceShard(size_t index, TimeNs until) {
  sim::Simulator& sim = index < cells_.size() ? cells_[index]->sim : core_->sim;
  return sim.RunUntil(until);
}

// Drains every mailbox at a window barrier, on the coordinator thread, in a fixed
// order (per cell ascending: core->cell first, then cell->core). The order pins the
// schedule sequence numbers of equal-timestamp deliveries, which is what makes the
// campus bit-identical across shard-thread counts. Every posted arrival is strictly
// later than the barrier (the ShardLink invariant), so ScheduleAt never clamps.
void CampusSim::DrainMailboxes() {
  for (size_t i = 0; i < cells_.size(); ++i) {
    CellShard* cell = cells_[i].get();
    ap::AccessPoint* ap = &cell->stack.ap;
    for (const PacketRecord& r : core_->to_cell[i].pending()) {
      net::Packet* raw = Materialize(r, &cell->pool).Detach();
      cell->sim.ScheduleAt(r.arrival, [ap, raw] {
        ap->EnqueueDownlink(net::PacketPtr::Adopt(raw));
      });
    }
    core_->to_cell[i].Clear();
  }
  net::Demux* demux = &core_->demux;
  for (std::unique_ptr<CellShard>& cell : cells_) {
    for (const PacketRecord& r : cell->to_core.pending()) {
      net::Packet* raw = Materialize(r, &core_->pool).Detach();
      core_->sim.ScheduleAt(r.arrival, [demux, raw] {
        const net::PacketPtr p = net::PacketPtr::Adopt(raw);
        demux->Deliver(kServerId, p);
      });
    }
    cell->to_core.Clear();
  }
}

void CampusSim::RunWindows(TimeNs until) {
  while (t_ < until) {
    const TimeNs window_end = std::min(t_ + lookahead_, until);
    if (pool_ != nullptr) {
      pool_->RunWindow(window_end);
    } else {
      for (size_t k = 0; k < cells_.size() + 1; ++k) {
        AdvanceShard(k, window_end);
      }
    }
    DrainMailboxes();
    // Windowed metrology: seal every interval that ended at or before this barrier,
    // merging child windows into the campus engine in fixed order (cells ascending,
    // then core) before the campus engine seals - the same determinism recipe as the
    // mailbox drain above. All on the coordinator thread, between windows.
    //
    // Only a barrier that crosses a stats-window boundary can have anything to seal:
    // every sample of this window is stamped with a shard clock in (t_, window_end],
    // so it lands in a window index >= t_ / stats.window, which the previous barrier
    // left open. Skipping the other barriers is exact, not an approximation.
    const TimeNs stats_window = config_.cell.stats.window;
    if (stats_window > 0 && window_end / stats_window > t_ / stats_window) {
      for (std::unique_ptr<CellShard>& cell : cells_) {
        cell->stack.stats.SealWindowsUpTo(window_end, &campus_stats_);
      }
      core_->stats.SealWindowsUpTo(window_end, &campus_stats_);
      campus_stats_.SealWindowsUpTo(window_end);
    }
    ++windows_;
    t_ = window_end;
  }
}

scenario::CampusResults CampusSim::Run() {
  if (!built_) {
    Build();
  }
  const scenario::ScenarioConfig& cc = config_.cell;

  RunWindows(cc.warmup);
  for (std::unique_ptr<CellShard>& cell : cells_) {
    cell->stack.SnapshotWarmup(cell->flows);
  }

  RunWindows(cc.warmup + cc.duration);

  // End-of-run metrology flush: children first (fixed order), then the campus engine,
  // so the partial last window and - in an unwindowed run - the whole-run meters land
  // in the campus tree exactly once.
  for (std::unique_ptr<CellShard>& cell : cells_) {
    cell->stack.stats.FlushAll(&campus_stats_);
  }
  core_->stats.FlushAll(&campus_stats_);
  campus_stats_.FlushAll();

  scenario::CampusResults out;
  out.lookahead = lookahead_;
  out.windows = windows_;
  out.cells.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    const CellShard& cell = *cells_[i];
    scenario::Results& r = out.cells[i];
    // The per-cell series covers what this cell's shard observed.
    cell.stack.ReadOut(cc.duration, cell.flows, &r);
    // A campus flow records in two shards (RTT and task samples on its engine side,
    // queue delays in its cell), so no one meter holds a cell: the cell's sketches
    // merge its flows' per-flow sketches (retained flows only under top-K retention).
    for (const std::unique_ptr<scenario::FlowEngine>& flow : cell.flows) {
      if (const stats::FlowStats* fs = flow->stats->flow(flow->flow_id)) {
        r.rtt_sketch.Merge(fs->rtt_sketch);
        r.task_latency_sketch.Merge(fs->task_latency_sketch);
      }
      if (const stats::FlowStats* qs = cell.stack.stats.flow(flow->flow_id)) {
        r.ap_queue_delay_sketch.Merge(qs->queue_delay_sketch);
      }
    }
    r.rtt = scenario::LatencySummary::FromSketch(r.rtt_sketch);
    r.ap_queue_delay = scenario::LatencySummary::FromSketch(r.ap_queue_delay_sketch);
    r.task_latency = scenario::LatencySummary::FromSketch(r.task_latency_sketch);

    out.aggregate_bps += r.aggregate_bps;
    out.tasks_completed += r.tasks_completed;
    out.mac_exchanges += r.mac_exchanges;
    out.mac_collisions += r.mac_collisions;

    out.cross_shard_packets += cell.uplink.sent() + core_->downlinks[i]->sent();
    out.backbone_drops += cell.uplink.drops() + core_->downlinks[i]->drops();
  }
  // The campus engine's merge tree carries every sample from every shard.
  out.rtt_sketch = campus_stats_.meter(stats::kRtt);
  out.ap_queue_delay_sketch = campus_stats_.meter(stats::kQueueDelay);
  out.task_latency_sketch = campus_stats_.meter(stats::kTaskLatency);
  out.rtt = scenario::LatencySummary::FromSketch(out.rtt_sketch);
  out.ap_queue_delay = scenario::LatencySummary::FromSketch(out.ap_queue_delay_sketch);
  out.task_latency = scenario::LatencySummary::FromSketch(out.task_latency_sketch);
  out.rtt_series = campus_stats_.series(stats::kRtt);
  out.ap_queue_delay_series = campus_stats_.series(stats::kQueueDelay);
  out.task_latency_series = campus_stats_.series(stats::kTaskLatency);
  out.goodput_series = campus_stats_.bytes_series();
  return out;
}

size_t CampusSim::MetrologyBytes() const {
  size_t total = campus_stats_.MemoryFootprintBytes();
  for (const std::unique_ptr<CellShard>& cell : cells_) {
    total += cell->stack.stats.MemoryFootprintBytes();
  }
  if (core_ != nullptr) {
    total += core_->stats.MemoryFootprintBytes();
  }
  return total;
}

}  // namespace tbf::shard

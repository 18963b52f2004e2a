#include "tbf/shard/campus_sim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <thread>

#include "tbf/scenario/flow_engine.h"
#include "tbf/shard/mailbox.h"
#include "tbf/shard/shard_link.h"
#include "tbf/sweep/sweep_runner.h"
#include "tbf/util/logging.h"

namespace tbf::shard {

using scenario::Direction;
using scenario::FlowEngine;
using scenario::FlowSpec;
using scenario::StationSpec;
using scenario::TrafficModel;
using scenario::Transport;

// One BSS shard: a complete single-cell stack (medium, DCF stations, AP + qdisc) with
// its own Simulator, PacketPool and Rng. The pool is declared right after the
// Simulator so it outlives every component that can hold packets, mirroring
// scenario::Wlan's member order.
struct CampusSim::CellShard {
  size_t index = 0;
  TimeNs link_delay = 0;  // One-way backbone latency of this cell's uplink/downlink.

  sim::Simulator sim;
  net::PacketPool pool;
  std::unique_ptr<sim::Rng> rng;
  std::unique_ptr<phy::FixedPerLink> fixed_loss;
  std::unique_ptr<phy::SnrLossModel> snr_loss;
  std::unique_ptr<phy::LossModel> loss;
  std::unique_ptr<mac::Medium> medium;
  std::unique_ptr<rateadapt::CompositeRateController> ap_rates;
  std::unique_ptr<ap::AccessPoint> ap;
  std::unique_ptr<net::Demux> demux;
  std::map<NodeId, std::unique_ptr<net::WirelessHost>> hosts;
  core::TimeBasedRegulator* tbr = nullptr;

  Mailbox to_core;                    // Written only by `uplink` during this cell's window.
  std::unique_ptr<ShardLink> uplink;  // Cell -> core backbone direction.

  // This shard's metrology: queue-delay taps for the cell's flows plus the task/RTT
  // meters of cell-side engines. Written only by the cell's thread during windows;
  // sealed into the campus engine by the coordinator at barriers.
  stats::StatsEngine stats;

  std::map<NodeId, TimeNs> airtime_at_warmup;
  TimeNs busy_at_warmup = 0;
};

// The wired core shard: owns the server side of every flow. There is no medium here -
// just the transports, reached through the core demux, and one downlink ShardLink per
// cell.
struct CampusSim::CoreShard {
  sim::Simulator sim;
  net::PacketPool pool;
  std::unique_ptr<sim::Rng> rng;
  std::unique_ptr<net::Demux> demux;
  std::vector<Mailbox> to_cell;  // [i] written only by downlinks[i] during core windows.
  std::vector<std::unique_ptr<ShardLink>> downlinks;

  // Core-side metrology: task/RTT meters of core-side engines plus delivered bytes of
  // flows whose receiver lives here. Same ownership rule as the cell engines.
  stats::StatsEngine stats;
};

// One campus flow. The FlowEngine lives in exactly one shard (TCP: the sender's, where
// task completion is observed via the final cumulative ack; UDP: the sink's, where
// delivery is counted); the far endpoint is owned here and lives in the opposite
// shard's Simulator. `remote_delivered` is written by the receiver's shard during
// windows and read by the coordinator only at barriers (warmup snapshot / readout).
struct CampusSim::FlowState {
  size_t bss = 0;
  bool uplink = true;
  bool tcp = true;
  bool engine_in_cell = true;

  FlowEngine engine;
  std::unique_ptr<net::TcpReceiver> remote_tcp_receiver;
  std::unique_ptr<net::UdpSource> remote_udp_source;

  int64_t remote_delivered = 0;
  int64_t remote_snapshot = 0;
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
// cells). A cut only changes which thread advances a shard, never what it computes.
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

  lookahead_ = 0;
  for (const scenario::BssSpec& bss : bss_) {
    const TimeNs delay =
        bss.backbone_delay > 0 ? bss.backbone_delay : config_.backbone_delay;
    lookahead_ = lookahead_ == 0 ? delay : std::min(lookahead_, delay);
  }

  // The core seeds from the campus seed itself, cell i from seed + 1 + i, so every
  // shard draws an independent, reproducible stream.
  core_ = std::make_unique<CoreShard>();
  core_->rng = std::make_unique<sim::Rng>(config_.cell.seed);
  core_->demux = std::make_unique<net::Demux>();
  core_->stats = stats::StatsEngine(config_.cell.stats);
  campus_stats_ = stats::StatsEngine(config_.cell.stats);
  core_->to_cell.resize(bss_.size());  // Sized once: Mailbox addresses must be stable.

  cells_.reserve(bss_.size());
  for (size_t i = 0; i < bss_.size(); ++i) {
    BuildCell(i);
    core_->downlinks.push_back(std::make_unique<ShardLink>(
        &core_->sim, &core_->to_cell[i], config_.backbone_rate,
        cells_[i]->link_delay, config_.backbone_queue_limit));
  }

  BuildFlows();

  threads_ = std::min(threads_, shard_count());
  if (threads_ > 1) {
    pool_ = std::make_unique<Pool>(this, threads_, cells_.size() + 1);
  }
}

void CampusSim::BuildCell(size_t index) {
  const scenario::BssSpec& bss = bss_[index];
  const scenario::ScenarioConfig& cc = config_.cell;

  auto cell = std::make_unique<CellShard>();
  cell->index = index;
  cell->stats = stats::StatsEngine(cc.stats);
  cell->link_delay =
      bss.backbone_delay > 0 ? bss.backbone_delay : config_.backbone_delay;
  cell->rng = std::make_unique<sim::Rng>(cc.seed + 1 + static_cast<uint64_t>(index));
  cell->fixed_loss = std::make_unique<phy::FixedPerLink>();
  cell->snr_loss = std::make_unique<phy::SnrLossModel>();
  cell->loss = std::make_unique<phy::DispatchLossModel>(cell->fixed_loss.get(),
                                                        cell->snr_loss.get());
  cell->medium = std::make_unique<mac::Medium>(&cell->sim, cc.timings, cell->loss.get(),
                                               cell->rng.get());
  cell->ap_rates = std::make_unique<rateadapt::CompositeRateController>();
  cell->ap = std::make_unique<ap::AccessPoint>(
      &cell->sim, cell->medium.get(),
      scenario::MakeQdisc(cc, &cell->sim, cell->ap_rates.get(), &cell->tbr),
      cell->ap_rates.get());
  cell->demux = std::make_unique<net::Demux>();
  cell->uplink = std::make_unique<ShardLink>(&cell->sim, &cell->to_core,
                                             config_.backbone_rate, cell->link_delay,
                                             config_.backbone_queue_limit);
  ShardLink* up = cell->uplink.get();
  cell->ap->SetUplinkForward([up](net::PacketPtr p) { up->Send(std::move(p)); });

  for (const StationSpec& spec : bss.stations) {
    if (spec.snr_db != 0.0) {
      cell->snr_loss->SetClientSnr(spec.id, spec.snr_db);
    } else if (spec.per > 0.0) {
      cell->fixed_loss->SetClientPer(spec.id, spec.per);
    }
    std::unique_ptr<rateadapt::RateController> client_rates;
    if (spec.arf) {
      rateadapt::ArfConfig arf;
      arf.initial_rate = spec.rate;
      auto ctrl = std::make_unique<rateadapt::ArfController>(arf);
      ctrl->Seed(kApId, spec.rate);
      client_rates = std::move(ctrl);
      cell->ap_rates->MarkAdaptive(spec.id, spec.rate);
    } else {
      client_rates = std::make_unique<rateadapt::FixedRateController>(spec.rate);
      cell->ap_rates->PinRate(spec.id, spec.rate);
    }
    cell->hosts.emplace(spec.id, std::make_unique<net::WirelessHost>(
                                     &cell->sim, cell->medium.get(), spec.id,
                                     std::move(client_rates), cell->demux.get(),
                                     spec.queue_limit));
    cell->ap->Associate(spec.id);
  }

  // Same association-order invariance as the single-cell builder: the allowance
  // divisor is this BSS's declared station count (all associated upfront above).
  if (cell->tbr != nullptr && cc.tbr.contention_contenders == 0) {
    cell->tbr->SetContentionContenders(static_cast<int>(bss.stations.size()));
  }

  if (cell->tbr != nullptr && cc.tbr.client_agent) {
    CellShard* raw = cell.get();
    cell->tbr->SetClientPauseFn([raw](NodeId client, TimeNs until) {
      auto it = raw->hosts.find(client);
      if (it != raw->hosts.end()) {
        it->second->PauseUplinkUntil(until);
      }
    });
  }

  cells_.push_back(std::move(cell));
}

void CampusSim::BuildFlows() {
  int next_flow_id = 1;
  for (size_t b = 0; b < bss_.size(); ++b) {
    CellShard* cell = cells_[b].get();
    ShardLink* down = core_->downlinks[b].get();
    for (const FlowSpec& spec : bss_[b].flows) {
      auto fs = std::make_unique<FlowState>();
      fs->bss = b;
      fs->uplink = spec.direction == Direction::kUplink;
      fs->tcp = spec.transport == Transport::kTcp;
      // TCP engines sit with the sender (task completion = final cumulative ack);
      // UDP engines sit with the sink (delivery is the completion signal).
      fs->engine_in_cell = fs->tcp ? fs->uplink : !fs->uplink;

      FlowEngine& rt = fs->engine;
      rt.spec = spec;
      rt.flow_id = next_flow_id++;
      rt.sim = fs->engine_in_cell ? &cell->sim : &core_->sim;
      rt.rng = fs->engine_in_cell ? cell->rng.get() : core_->rng.get();
      rt.stats = fs->engine_in_cell ? &cell->stats : &core_->stats;
      // A flow is registered wherever a shard records for it: its engine's shard
      // (task + RTT meters), its cell (the AP queue-delay tap always fires there),
      // and - for TCP - the receiver's shard (delivered bytes). Registration is
      // idempotent, so overlaps are fine.
      rt.stats->RegisterFlow(rt.flow_id);
      cell->stats.RegisterFlow(rt.flow_id);

      auto it = cell->hosts.find(spec.client);
      TBF_CHECK(it != cell->hosts.end()) << "flow references unknown station "
                                         << spec.client;
      net::WirelessHost* host = it->second.get();

      net::FlowAddress addr;
      addr.flow_id = rt.flow_id;
      addr.wlan_client = spec.client;
      addr.sender = fs->uplink ? spec.client : kServerId;
      addr.receiver = fs->uplink ? kServerId : spec.client;

      // The two shard-edge exits: into the cell's air, or into this cell's downlink.
      std::function<void(net::PacketPtr)> cell_out = [host](net::PacketPtr p) {
        host->SendPacket(std::move(p));
      };
      std::function<void(net::PacketPtr)> core_out = [down](net::PacketPtr p) {
        down->Send(std::move(p));
      };

      const TimeNs flow_start = rt.InitFirstTask(spec.start);
      const int64_t first_task = rt.task_target;
      FlowEngine* rt_ptr = &rt;
      FlowState* fs_ptr = fs.get();

      if (fs->tcp) {
        net::TcpConfig tcp;
        tcp.mss = spec.packet_bytes - net::kIpTcpHeaderBytes;
        sim::Simulator* send_sim = fs->uplink ? &cell->sim : &core_->sim;
        net::PacketPool* send_pool = fs->uplink ? &cell->pool : &core_->pool;
        sim::Simulator* recv_sim = fs->uplink ? &core_->sim : &cell->sim;
        net::PacketPool* recv_pool = fs->uplink ? &core_->pool : &cell->pool;
        // Delivered bytes are counted where the receiver lives - the shard opposite
        // the engine - and read by the coordinator only at barriers. The receiver
        // shard's stats engine also counts them (driving its retention ranking).
        stats::StatsEngine* recv_stats = fs->uplink ? &core_->stats : &cell->stats;
        recv_stats->RegisterFlow(rt.flow_id);
        const int fid = rt.flow_id;
        auto deliver = [fs_ptr, recv_stats, recv_sim, fid](int64_t bytes) {
          fs_ptr->remote_delivered += bytes;
          recv_stats->RecordBytes(fid, recv_sim->Now(), bytes);
        };
        rt.tcp_sender = std::make_unique<net::TcpSender>(
            send_sim, send_pool, tcp, addr, fs->uplink ? cell_out : core_out);
        fs->remote_tcp_receiver = std::make_unique<net::TcpReceiver>(
            recv_sim, recv_pool, tcp, addr, fs->uplink ? core_out : cell_out, deliver);
        if (first_task > 0) {
          rt.tcp_sender->SetTaskBytes(first_task);
          rt.tcp_sender->SetOnTaskComplete([rt_ptr] { rt_ptr->OnTaskComplete(); });
        }
        if (spec.app_limit_bps > 0) {
          rt.tcp_sender->SetAppLimitBps(spec.app_limit_bps);
        }
        rt.tcp_sender->SetRttSampleFn([rt_ptr](TimeNs sample) {
          rt_ptr->stats->RecordRtt(rt_ptr->flow_id, rt_ptr->sim->Now(), sample);
        });
        net::Demux* send_demux = fs->uplink ? cell->demux.get() : core_->demux.get();
        net::Demux* recv_demux = fs->uplink ? core_->demux.get() : cell->demux.get();
        send_demux->Register(addr.sender, addr.flow_id, rt.tcp_sender.get());
        recv_demux->Register(addr.receiver, addr.flow_id, fs->remote_tcp_receiver.get());
        rt.actual_start = flow_start;
        rt.tcp_sender->Start(rt.actual_start);
      } else {
        // UDP: the source sits on the sending side, the sink (with the engine) where
        // delivery happens. Campus validation pinned the model to kBulk, so the engine
        // never has to restart the remote source.
        sim::Simulator* src_sim = fs->uplink ? &cell->sim : &core_->sim;
        net::PacketPool* src_pool = fs->uplink ? &cell->pool : &core_->pool;
        sim::Rng* src_rng = fs->uplink ? cell->rng.get() : core_->rng.get();
        auto deliver = [rt_ptr](int64_t bytes) { rt_ptr->OnDelivered(bytes); };
        fs->remote_udp_source = std::make_unique<net::UdpSource>(
            src_sim, src_pool, addr, fs->uplink ? cell_out : core_out, spec.udp_rate,
            spec.packet_bytes, first_task, src_rng);
        rt.udp_sink = std::make_unique<net::UdpSink>(deliver);
        net::Demux* recv_demux = fs->uplink ? core_->demux.get() : cell->demux.get();
        recv_demux->Register(addr.receiver, addr.flow_id, rt.udp_sink.get());
        // Stagger CBR starts so synchronized sources do not phase-lock; flow ids are
        // campus-global, so the stagger pattern matches an equivalent single cell.
        rt.actual_start = flow_start + rt.flow_id * Us(97);
        fs->remote_udp_source->Start(rt.actual_start);
      }
      rt.task_started_at = rt.actual_start;
      flows_.push_back(std::move(fs));
    }
  }

  // AP qdisc residency taps: each cell's tap only ever fires for that cell's flows
  // and records into that cell's own stats engine, so every engine keeps exactly one
  // writing thread.
  for (std::unique_ptr<CellShard>& cell : cells_) {
    CellShard* raw = cell.get();
    cell->ap->SetQueueDelayFn([raw](int flow_id, NodeId /*client*/, TimeNs delay) {
      raw->stats.RecordQueueDelay(flow_id, raw->sim.Now(), delay);
    });
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
    ap::AccessPoint* ap = cell->ap.get();
    for (const PacketRecord& r : core_->to_cell[i].pending()) {
      net::Packet* raw = Materialize(r, &cell->pool).Detach();
      cell->sim.ScheduleAt(r.arrival, [ap, raw] {
        ap->EnqueueDownlink(net::PacketPtr::Adopt(raw));
      });
    }
    core_->to_cell[i].Clear();
  }
  net::Demux* demux = core_->demux.get();
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
        cell->stats.SealWindowsUpTo(window_end, &campus_stats_);
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
    for (const auto& [node, t] : cell->medium->airtime_meter().by_node()) {
      cell->airtime_at_warmup[node] = t;
    }
    cell->busy_at_warmup = cell->medium->busy_time();
  }
  for (std::unique_ptr<FlowState>& fs : flows_) {
    fs->engine.window_snapshot = fs->engine.delivered_bytes;
    fs->remote_snapshot = fs->remote_delivered;
  }

  RunWindows(cc.warmup + cc.duration);

  // End-of-run metrology flush: children first (fixed order), then the campus engine,
  // so the partial last window and - in unwindowed streaming mode - the whole-run
  // meters land in the campus tree exactly once.
  for (std::unique_ptr<CellShard>& cell : cells_) {
    cell->stats.FlushAll(&campus_stats_);
  }
  core_->stats.FlushAll(&campus_stats_);
  campus_stats_.FlushAll();

  scenario::CampusResults out;
  out.lookahead = lookahead_;
  out.windows = windows_;
  const double window_sec = ToSeconds(cc.duration);

  out.cells.resize(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    CellShard* cell = cells_[i].get();
    scenario::Results& r = out.cells[i];

    TimeNs total_airtime_delta = 0;
    std::map<NodeId, TimeNs> airtime_delta;
    for (const auto& [node, t] : cell->medium->airtime_meter().by_node()) {
      const TimeNs before = cell->airtime_at_warmup.contains(node)
                                ? cell->airtime_at_warmup[node]
                                : 0;
      airtime_delta[node] = t - before;
      total_airtime_delta += t - before;
    }
    for (const auto& [node, dt] : airtime_delta) {
      r.airtime_share[node] =
          total_airtime_delta > 0
              ? static_cast<double>(dt) / static_cast<double>(total_airtime_delta)
              : 0.0;
    }

    double sum_task_sec = 0.0;
    int64_t table1_tasks = 0;
    for (std::unique_ptr<FlowState>& fs : flows_) {
      if (fs->bss != i) {
        continue;
      }
      // TCP delivery is always counted in the receiver's shard (opposite the engine);
      // UDP delivery is counted by the engine itself (it owns the sink). Task/RTT
      // meters read from the engine's shard, queue delay always from the cell.
      const int64_t delta =
          fs->tcp ? fs->remote_delivered - fs->remote_snapshot
                  : fs->engine.delivered_bytes - fs->engine.window_snapshot;
      const stats::StatsEngine& engine_stats =
          fs->engine_in_cell ? cell->stats : core_->stats;
      AccumulateFlowResult(fs->engine, delta, window_sec, engine_stats, cell->stats,
                           &r, &sum_task_sec, &table1_tasks);
    }
    if (table1_tasks > 0) {
      r.avg_task_time_sec = sum_task_sec / static_cast<double>(table1_tasks);
    }
    // The per-cell sketches are the per-flow merges (retained flows only under
    // sampled retention); the per-cell series covers what this cell's shard observed.
    r.rtt = scenario::LatencySummary::FromSketch(r.rtt_sketch);
    r.ap_queue_delay = scenario::LatencySummary::FromSketch(r.ap_queue_delay_sketch);
    r.task_latency = scenario::LatencySummary::FromSketch(r.task_latency_sketch);
    r.rtt_series = cell->stats.series(stats::kRtt);
    r.ap_queue_delay_series = cell->stats.series(stats::kQueueDelay);
    r.task_latency_series = cell->stats.series(stats::kTaskLatency);
    r.goodput_series = cell->stats.bytes_series();

    r.utilization = static_cast<double>(cell->medium->busy_time() -
                                        cell->busy_at_warmup) /
                    cc.duration;
    r.mac_collisions = cell->medium->collisions();
    r.mac_exchanges = cell->medium->exchanges();
    r.ap_drops = cell->ap->downlink_drops();

    out.aggregate_bps += r.aggregate_bps;
    out.tasks_completed += r.tasks_completed;
    out.mac_exchanges += r.mac_exchanges;
    out.mac_collisions += r.mac_collisions;
    out.rtt_sketch.Merge(r.rtt_sketch);
    out.ap_queue_delay_sketch.Merge(r.ap_queue_delay_sketch);
    out.task_latency_sketch.Merge(r.task_latency_sketch);

    out.cross_shard_packets += cell->uplink->sent() + core_->downlinks[i]->sent();
    out.backbone_drops += cell->uplink->drops() + core_->downlinks[i]->drops();
  }
  // Legacy exact mode: the campus-wide sketches are the per-cell merges above, byte-
  // identical to the pre-engine readout. Streaming modes: the campus engine's merge
  // tree carries every sample from every shard, so it replaces them.
  if (campus_stats_.HasCompleteMeters()) {
    out.rtt_sketch = campus_stats_.meter(stats::kRtt);
    out.ap_queue_delay_sketch = campus_stats_.meter(stats::kQueueDelay);
    out.task_latency_sketch = campus_stats_.meter(stats::kTaskLatency);
  }
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
    total += cell->stats.MemoryFootprintBytes();
  }
  if (core_ != nullptr) {
    total += core_->stats.MemoryFootprintBytes();
  }
  return total;
}

}  // namespace tbf::shard

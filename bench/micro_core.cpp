// Microbenchmarks (google-benchmark) for the hot paths: the simulator's event queue, the
// TBR token operations that run per frame at the AP, the DCF contention engine, and the
// analytic models. These bound TBR's per-packet CPU cost - the practical deployability
// argument (the paper ran it on a PIII-700 AP).
//
// The event-queue benchmarks measure the *steady state* (warm event pool, reused
// simulator), which is the regime every figure/table bench runs in after its first few
// simulated milliseconds. BM_EventQueueColdStart covers first-touch growth separately.
//
// Emit machine-readable results with:
//   ./micro_core --benchmark_out=BENCH_<tag>.json --benchmark_out_format=json
// (see bench/README.md for the comparison workflow).
#include <benchmark/benchmark.h>

#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "tbf/core/tbr.h"
#include "tbf/mac/medium.h"
#include "tbf/model/fairness_model.h"
#include "tbf/model/task_model.h"
#include "tbf/net/packet.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sim/simulator.h"
#include "tbf/sweep/sweep_runner.h"

namespace {

using namespace tbf;

// Scenario benches construct and tear down a full Wlan per iteration; each teardown
// frees a multi-MB contiguous working set, which glibc's default trim policy hands back
// to the kernel only for the next iteration to page-fault in again (up to 2x wall on
// the many-station cells, pure allocator noise). Keep the peak working set resident -
// same policy as bench_common.h; MALLOC_TRIM_THRESHOLD_=-1 is the env equivalent for
// baseline binaries that predate this line.
const bool g_malloc_trim_disabled = [] {
#if defined(__GLIBC__)
  mallopt(M_TRIM_THRESHOLD, -1);
#endif
  return true;
}();

// Self-rescheduling chain with DCF-flavoured deltas (slots, IFS, frame airtimes at the
// 802.11b rates). Every fired event schedules its successor, so a run keeps a constant
// population of pending events - the simulator's real operating point.
struct ChurnChain {
  sim::Simulator* sim;
  int64_t* fired;
  int i = 0;

  void operator()() {
    static constexpr TimeNs kDeltas[] = {Us(20),   Us(10),  Us(50),    Us(310),
                                         Us(1091), Us(214), Us(12000), Us(2000)};
    ++*fired;
    const TimeNs delta = kDeltas[static_cast<size_t>(++i) & 7];
    sim->Schedule(delta, *this);
  }
};

void BM_EventQueueScheduleRun(benchmark::State& state) {
  sim::Simulator sim;
  int64_t fired = 0;
  for (int j = 0; j < 1000; ++j) {
    sim.Schedule(Us(j), ChurnChain{&sim, &fired, j});
  }
  sim.RunUntil(Ms(50));  // Warm the event pool and wheel.
  const int64_t warm = fired;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunUntil(sim.Now() + Ms(2)));
  }
  state.SetItemsProcessed(fired - warm);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  ids.reserve(1000);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sim.Schedule(Us(i), [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      sim.Cancel(ids[i]);
    }
    benchmark::DoNotOptimize(sim.RunUntilIdle());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueColdStart(benchmark::State& state) {
  // First-touch cost: fresh simulator per iteration (slab/wheel growth included).
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(Us(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.RunUntilIdle());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueColdStart);

net::PacketPtr MakePacket(net::PacketPool& pool, NodeId client) {
  net::PacketPtr p = pool.Allocate();
  p->wlan_client = client;
  p->dst = client;
  p->size_bytes = 1500;
  return p;
}

void BM_TbrEnqueueDequeue(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  sim::Simulator sim;
  net::PacketPool pool;
  core::TimeBasedRegulator tbr(&sim, phy::MixedModeTimings(), {},
                               static_cast<size_t>(clients));
  for (NodeId id = 1; id <= clients; ++id) {
    tbr.OnAssociate(id);
  }
  NodeId next = 1;
  for (auto _ : state) {
    tbr.Enqueue(MakePacket(pool, next));
    next = next % clients + 1;
    benchmark::DoNotOptimize(tbr.Dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TbrEnqueueDequeue)->Arg(2)->Arg(8)->Arg(32);

// FILLEVENT bookkeeping at cell scale: one fill period per iteration with N associated
// clients, a quarter of them backlogged and so deep in debt that none recovers during
// the run. The tick then does nothing but bookkeeping; a per-client fill loop makes it
// O(N) again.
void BM_TbrFillTick(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  sim::Simulator sim;
  net::PacketPool pool;
  core::TbrConfig config;
  config.use_retry_info = true;  // Uplink charges bill the record's airtime as given.
  core::TimeBasedRegulator tbr(&sim, phy::MixedModeTimings(), config,
                               static_cast<size_t>(clients));
  for (NodeId id = 1; id <= clients; ++id) {
    tbr.OnAssociate(id);
  }
  for (NodeId id = 1; id <= clients; id += 4) {
    tbr.Enqueue(MakePacket(pool, id));
    mac::ExchangeRecord record;
    record.owner = id;
    record.airtime = Sec(1'000'000);
    tbr.OnUplinkObserved(record);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.RunUntil(sim.Now() + core::TimeBasedRegulator::kFillPeriod));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TbrFillTick)->Arg(256);

// Steady-state pooled allocate/release churn with a live working set, the per-packet
// allocator cost every transport emission pays (vs the make_shared/atomic-refcount
// path this replaced). A 64-handle ring keeps slots cycling FIFO-ish through the
// freelist instead of ping-ponging one slot.
void BM_PacketPoolChurn(benchmark::State& state) {
  net::PacketPool pool;
  constexpr size_t kRing = 64;
  net::PacketPtr ring[kRing];
  size_t i = 0;
  for (auto _ : state) {
    ring[i & (kRing - 1)] = MakePacket(pool, static_cast<NodeId>(i & 255));
    benchmark::DoNotOptimize(ring[i & (kRing - 1)].get());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolChurn);

// The stock per-client AP qdisc at cell scale: dense slot lookup + intrusive FIFO
// push/pop, with the round-robin dequeue walk over N mostly-empty queues - the
// MACTXEVENT cost of the 256-station scenario without the MAC underneath.
void BM_QdiscEnqueueDequeue(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  net::PacketPool pool;
  ap::RoundRobinQdisc qdisc;
  for (NodeId id = 1; id <= clients; ++id) {
    qdisc.OnAssociate(id);
  }
  NodeId next = 1;
  for (auto _ : state) {
    qdisc.Enqueue(MakePacket(pool, next));
    next = next % clients + 1;
    benchmark::DoNotOptimize(qdisc.Dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QdiscEnqueueDequeue)->Arg(8)->Arg(256);

void BM_TbrOccupancyEstimate(benchmark::State& state) {
  sim::Simulator sim;
  core::TimeBasedRegulator tbr(&sim, phy::MixedModeTimings(), {}, /*contenders=*/2);
  tbr.OnAssociate(1);
  tbr.OnAssociate(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tbr.EstimateOccupancy(1536, phy::WifiRate::k11Mbps, 1));
    benchmark::DoNotOptimize(tbr.EstimateOccupancy(1536, phy::WifiRate::k1Mbps, 2));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TbrOccupancyEstimate);

void BM_DcfSaturatedSecond(benchmark::State& state) {
  // Cost of simulating one second of a saturated two-station cell.
  for (auto _ : state) {
    scenario::ScenarioConfig config;
    config.warmup = 0;
    config.duration = Sec(1);
    scenario::Wlan wlan(config);
    wlan.AddStation(1, phy::WifiRate::k11Mbps);
    wlan.AddStation(2, phy::WifiRate::k11Mbps);
    wlan.AddBulkTcp(1, scenario::Direction::kUplink);
    wlan.AddBulkTcp(2, scenario::Direction::kUplink);
    benchmark::DoNotOptimize(wlan.Run().aggregate_bps);
  }
}
BENCHMARK(BM_DcfSaturatedSecond)->Unit(benchmark::kMillisecond);

void BM_TcpUplinkSecond(benchmark::State& state) {
  // TCP-timer-heavy workload: 8 saturated uplink TCP flows. Every returning ack re-arms
  // the sender's RTO and every data segment touches the receiver's delayed-ack timer,
  // so this bounds the cost of TCP timer management (lazy deadlines vs cancel/reschedule
  // churn into the timing wheel's overflow heap).
  for (auto _ : state) {
    scenario::ScenarioConfig config;
    config.warmup = 0;
    config.duration = Sec(1);
    scenario::Wlan wlan(config);
    for (NodeId id = 1; id <= 8; ++id) {
      wlan.AddStation(id, phy::WifiRate::k11Mbps);
      wlan.AddBulkTcp(id, scenario::Direction::kUplink);
    }
    benchmark::DoNotOptimize(wlan.Run().aggregate_bps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpUplinkSecond)->Unit(benchmark::kMillisecond);

void BM_ManyStationCell(benchmark::State& state) {
  // Wall time per simulated second of a large TBR cell with mixed rates and saturated
  // downlink TCP to every station - the scenario-diversity scaling check. Reported
  // per-iteration time IS wall ms per simulated second (duration = 1 s).
  const int n = static_cast<int>(state.range(0));
  static constexpr phy::WifiRate kRates[] = {phy::WifiRate::k11Mbps, phy::WifiRate::k5_5Mbps,
                                             phy::WifiRate::k2Mbps, phy::WifiRate::k1Mbps};
  for (auto _ : state) {
    scenario::ScenarioConfig config;
    config.qdisc = scenario::QdiscKind::kTbr;
    config.warmup = 0;
    config.duration = Sec(1);
    scenario::Wlan wlan(config);
    for (NodeId id = 1; id <= n; ++id) {
      wlan.AddStation(id, kRates[static_cast<size_t>(id) & 3]);
      wlan.AddBulkTcp(id, scenario::Direction::kDownlink);
    }
    benchmark::DoNotOptimize(wlan.Run().aggregate_bps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ManyStationCell)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_ScenarioSweep(benchmark::State& state) {
  // Wall-clock of a representative 8-scenario figure/table grid on an N-thread pool.
  // Arg(1) is the serial reference; the per-iteration real time IS the suite wall-clock
  // metric recorded in the BENCH_*.json trajectory.
  const int threads = static_cast<int>(state.range(0));
  static constexpr phy::WifiRate kPairRates[] = {
      phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps, phy::WifiRate::k5_5Mbps,
      phy::WifiRate::k11Mbps};
  std::vector<tbf::sweep::ScenarioJob> jobs;
  for (phy::WifiRate rate : kPairRates) {
    for (scenario::QdiscKind qdisc :
         {scenario::QdiscKind::kFifo, scenario::QdiscKind::kTbr}) {
      tbf::sweep::ScenarioJob job;
      job.config.qdisc = qdisc;
      job.config.warmup = 0;
      job.config.duration = Sec(1);
      for (NodeId id = 1; id <= 2; ++id) {
        scenario::StationSpec station;
        station.id = id;
        station.rate = id == 1 ? rate : phy::WifiRate::k11Mbps;
        job.stations.push_back(station);
        scenario::FlowSpec flow;
        flow.client = id;
        flow.direction = scenario::Direction::kUplink;
        flow.transport = scenario::Transport::kTcp;
        job.flows.push_back(flow);
      }
      jobs.push_back(std::move(job));
    }
  }
  tbf::sweep::SweepRunner runner(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.RunScenarios(jobs));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(jobs.size()));
}
BENCHMARK(BM_ScenarioSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FairnessModelAllocation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<model::NodeModel> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back({1e6 + 1e5 * i, 1500.0, 1.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::ThroughputFairAllocation(nodes).total_bps);
    benchmark::DoNotOptimize(model::TimeFairAllocation(nodes).total_bps);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FairnessModelAllocation)->Arg(4)->Arg(64);

void BM_TaskModel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<model::Task> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back({1e6 + 2e5 * i, 1e6 + 1e5 * i, 1.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::RunTaskModel(tasks, model::FairnessNotion::kTimeFair).avg_task_time_sec);
  }
}
BENCHMARK(BM_TaskModel)->Arg(8)->Arg(64);

}  // namespace

// BENCHMARK_MAIN plus the build type of tbf itself in the output's context block:
// google-benchmark's own `library_build_type` describes the system libbenchmark, not
// this binary (bench/compare_bench.py records both).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::AddCustomContext("tbf_build_type", TBF_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Campus scale bench: multi-AP buildings driven through the sharded conservative
// simulator (shard::CampusSim). Each row is one campus - N APs, each a full
// single-cell stack with mixed-rate stations, bulk TCP uplink and task-sequence TCP
// downlink - advanced in lock-step lookahead windows with per-shard pools. The table
// and the "[series]" task-latency time series are deterministic by construction
// (bit-identical for any TBF_SHARD_THREADS, which CI enforces by diffing this binary's
// output across shard counts); wall-clock and memory measurements ride on separate
// "[wall]"-prefixed lines so the determinism diff can exclude them.
//
// Metrology runs in streaming mode by default (windowed series + sampled per-flow
// retention, stats::StatsEngine), which is what bounds readout memory at 64 APs and
// beyond. TBF_CAMPUS_EXACT=1 switches to exact retention in one window - the A/B knob
// BENCH_pr8.json uses to demonstrate the readout-memory win on the same build.
//
// The paper's single-cell experiments stop at one AP; this is the scale-out direction:
// a building of cells whose only coupling is the wired backbone, exactly the shape the
// conservative lookahead protocol exploits. On a single-core container the sharded run
// shows ~1x wall-clock (the shards serialize); the bench exists to hold the
// determinism bar and to measure the win where cores exist.
#include "bench_common.h"

#include <chrono>
#include <cstdlib>

#include "tbf/shard/campus_sim.h"

namespace {

using namespace tbf;

scenario::BssSpec MakeBss(int stations) {
  scenario::BssSpec bss;
  for (NodeId id = 1; id <= stations; ++id) {
    scenario::StationSpec station;
    station.id = id;
    // Mixed rungs: the paper's rate-diversity precondition inside every cell.
    switch (id % 4) {
      case 0:
        station.rate = phy::WifiRate::k2Mbps;
        break;
      case 1:
        station.rate = phy::WifiRate::k5_5Mbps;
        break;
      default:
        station.rate = phy::WifiRate::k11Mbps;
        break;
    }
    bss.stations.push_back(station);
    scenario::FlowSpec flow;
    flow.client = id;
    flow.direction = id % 2 == 0 ? scenario::Direction::kDownlink
                                 : scenario::Direction::kUplink;
    flow.transport = scenario::Transport::kTcp;
    if (flow.direction == scenario::Direction::kDownlink) {
      // Finite downloads instead of unbounded bulk: every completion feeds the
      // task-latency meter, so the windowed series below has real content.
      // Small enough to finish in well under a second on a congested shared cell
      // (per-flow throughput is a couple hundred kbit/s here), so completions land
      // in several 500 ms windows.
      flow.model = scenario::TrafficModel::kTaskSequence;
      flow.task_bytes = 12 * 1024;
      flow.task_count = 64;
      flow.task_gap = Ms(50);
    }
    bss.flows.push_back(flow);
  }
  return bss;
}

struct CampusRow {
  const char* name;
  scenario::QdiscKind qdisc;
  int aps;
  int stations_per_ap;
};

void PrintTaskLatencySeries(const CampusRow& row,
                            const stats::MeterSeries& series) {
  // Deterministic per-window percentile lines - part of the CI determinism diff.
  for (const stats::WindowStat& ws : series.windows) {
    std::printf("[series] %s %dx%d task_latency t=%.1fs n=%lld p50=%.2fms "
                "p95=%.2fms p99=%.2fms\n",
                row.name, row.aps, row.stations_per_ap, ToSeconds(ws.start),
                static_cast<long long>(ws.count), ToMillis(ws.p50), ToMillis(ws.p95),
                ToMillis(ws.p99));
  }
}

}  // namespace

int main() {
  using namespace tbf;
  using namespace tbf::bench;

  const char* exact_env = std::getenv("TBF_CAMPUS_EXACT");
  const bool exact = exact_env != nullptr && exact_env[0] == '1';

  PrintHeader("Campus scale - sharded multi-AP simulation, conservative lookahead",
              "scale-out of the paper's single-cell testbed: one BSS shard per AP, "
              "lock-step windows bounded by the backbone latency");
  std::printf("metrology: %s\n\n",
              exact ? "exact retention (TBF_CAMPUS_EXACT=1)"
                    : "streaming (500 ms windows, top-4 + 1-in-32 sampled retention)");

  std::vector<CampusRow> rows = {
      {"Exp-Normal(RF)", scenario::QdiscKind::kFifo, 4, 16},
      {"Exp-Normal(RF)", scenario::QdiscKind::kFifo, 16, 16},
      {"Exp-Normal(RF)", scenario::QdiscKind::kFifo, 64, 16},
      {"Exp-TBR(TF)", scenario::QdiscKind::kTbr, 16, 16},
  };
  // The 10k-station row costs minutes of single-core wall-clock; opt in explicitly
  // (CI and the determinism gate run the CI-sized rows only).
  if (const char* full = std::getenv("TBF_CAMPUS_FULL"); full != nullptr && full[0] == '1') {
    rows.push_back({"Exp-Normal(RF)", scenario::QdiscKind::kFifo, 64, 160});
  }

  stats::Table table({"config", "APs", "stas", "flows", "agg Mbps", "Mbps/cell",
                      "p95 queue ms", "p95 task ms", "windows", "xshard pkts", "drops"});
  double suite_wall_sec = 0.0;
  int shard_threads = 0;
  bool ok = true;

  for (const CampusRow& row : rows) {
    scenario::CampusConfig config;
    config.cell.qdisc = row.qdisc;
    config.cell.seed = 5;
    config.cell.warmup = Sec(1);
    config.cell.duration = Sec(2);
    if (!exact) {
      config.cell.stats.window = Ms(500);
      config.cell.stats.top_k = 4;
      config.cell.stats.sample_every = 32;
    }

    shard::CampusSim campus(config);  // Thread count from TBF_SHARD_THREADS.
    for (int i = 0; i < row.aps; ++i) {
      campus.AddBss(MakeBss(row.stations_per_ap));
    }

    const auto start = std::chrono::steady_clock::now();
    const scenario::CampusResults results = campus.Run();
    const double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    suite_wall_sec += wall_sec;
    shard_threads = campus.thread_count();

    const int total_stations = row.aps * row.stations_per_ap;
    table.AddRow({row.name, std::to_string(row.aps), std::to_string(total_stations),
                  std::to_string(total_stations),
                  stats::Table::Num(results.aggregate_bps / 1e6, 2),
                  stats::Table::Num(results.aggregate_bps / 1e6 / row.aps, 2),
                  stats::Table::Num(results.ap_queue_delay.P95Ms(), 1),
                  stats::Table::Num(results.task_latency.P95Ms(), 1),
                  std::to_string(results.windows),
                  std::to_string(results.cross_shard_packets),
                  std::to_string(results.backbone_drops)});
    PrintTaskLatencySeries(row, results.task_latency_series);
    std::printf("[wall] %s %dx%d: %.1f ms wall, %d shard threads, metrology %.1f KB, "
                "peak rss %.1f MB\n",
                row.name, row.aps, row.stations_per_ap, wall_sec * 1e3,
                campus.thread_count(), campus.MetrologyBytes() / 1024.0,
                PeakRssBytes() / (1024.0 * 1024.0));

    // Sanity gates for CI: every cell must carry traffic, all of it must have crossed
    // the backbone (every flow's far end lives in the core shard), tasks must have
    // completed, and in streaming mode the windowed series must be live.
    if (results.aggregate_bps <= 0.0 || results.cross_shard_packets <= 0 ||
        results.tasks_completed <= 0) {
      ok = false;
    }
    if (!exact && results.task_latency_series.windows.empty()) {
      ok = false;
    }
    for (const scenario::Results& cell : results.cells) {
      if (cell.aggregate_bps <= 0.0) {
        ok = false;
      }
    }
  }

  table.Print();

  std::printf("\nReading: aggregate goodput scales with AP count (cells only couple "
              "through the\nbackbone), per-cell goodput stays near the single-cell "
              "mark, and the window count\nis ceil(simulated time / lookahead) - the "
              "conservative horizon at work. The table\nand [series] lines are "
              "bit-identical for any TBF_SHARD_THREADS; only the [wall]\nlines move.\n");
  std::printf("\n[wall] campus suite: %zu campuses in %.1f ms wall on %d shard threads, "
              "peak rss %.1f MB\n",
              rows.size(), suite_wall_sec * 1e3, shard_threads,
              PeakRssBytes() / (1024.0 * 1024.0));

  if (!ok) {
    std::printf("FAIL: a campus cell carried no traffic, no tasks completed, nothing "
                "crossed shards, or the windowed series is empty\n");
    return 1;
  }
  return 0;
}

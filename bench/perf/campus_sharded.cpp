// campus_sharded: 64 BSS x 16 stations on CampusSim with one shard thread per CPU (up
// to four). The only workload that crosses shard barriers and mailboxes; every cell is
// the same stack cell_large runs without shards.
#include "perf.h"
#include "tbf/shard/campus_sim.h"

namespace tbf::perf {
namespace {

constexpr int kCells = 64;
constexpr int kStationsPerCell = 16;
constexpr TimeNs kWarmup = Sec(1);
constexpr TimeNs kDuration = Sec(10);

// The bench_campus_scale cell: rates 2/5.5/11/11 Mbps, half bulk TCP uplink, half
// finite TCP downloads (64 x 12 KiB, 50 ms apart) - here in a seeded assignment.
scenario::BssSpec MakeBss(InputRng* rng) {
  constexpr phy::WifiRate kRates[] = {phy::WifiRate::k2Mbps, phy::WifiRate::k5_5Mbps,
                                      phy::WifiRate::k11Mbps, phy::WifiRate::k11Mbps};
  std::vector<int> slots(kStationsPerCell);
  for (int i = 0; i < kStationsPerCell; ++i) {
    slots[static_cast<size_t>(i)] = i;
  }
  rng->Shuffle(&slots);
  scenario::BssSpec bss;
  for (int i = 0; i < kStationsPerCell; ++i) {
    const int slot = slots[static_cast<size_t>(i)];
    scenario::StationSpec station;
    station.id = static_cast<NodeId>(i + 1);
    station.rate = kRates[slot % 4];
    bss.stations.push_back(station);
    scenario::FlowSpec flow;
    flow.client = station.id;
    if (slot % 2 == 0) {
      flow.direction = scenario::Direction::kDownlink;
      flow.model = scenario::TrafficModel::kTaskSequence;
      flow.task_bytes = 12 * 1024;
      flow.task_count = 64;
      flow.task_gap = Ms(50);
    } else {
      flow.direction = scenario::Direction::kUplink;
    }
    bss.flows.push_back(flow);
  }
  return bss;
}

struct CampusRun {
  scenario::CampusResults results;
  size_t metrology_bytes = 0;
  double wall_s = 0.0;
};

CampusRun RunCampus(const scenario::CampusConfig& config,
                    const std::vector<scenario::BssSpec>& cells, int threads, Tracer* tracer,
                    const char* span_name, int64_t parent) {
  Span span(tracer, span_name, parent);
  const Clock::time_point start = Clock::now();
  CampusRun out;
  {
    shard::CampusSim campus(config, threads);
    for (const scenario::BssSpec& bss : cells) {
      campus.AddBss(bss);
    }
    out.results = campus.Run();
    out.metrology_bytes = campus.MetrologyBytes();
  }
  out.wall_s = SecondsBetween(start, Clock::now());
  return out;
}

uint64_t CampusDigest(const scenario::CampusResults& results) {
  Fnv fnv;
  for (const scenario::Results& cell : results.cells) {
    AddOutcomes(cell, &fnv);
  }
  fnv.Add(results.windows);
  fnv.Add(results.cross_shard_packets);
  fnv.Add(results.backbone_drops);
  return fnv.value();
}

}  // namespace

void RunCampusSharded(const RunOptions& options, Tracer* tracer, Report* report) {
  InputRng rng(options.seed, 3);
  std::vector<scenario::BssSpec> cells;
  for (int i = 0; i < kCells; ++i) {
    cells.push_back(MakeBss(&rng));
  }
  scenario::CampusConfig config;
  config.cell.qdisc = scenario::QdiscKind::kTbr;
  config.cell.seed = options.seed;
  config.cell.warmup = kWarmup;
  config.cell.duration = kDuration;
  config.cell.stats.window = Ms(500);
  config.cell.stats.top_k = 4;
  config.cell.stats.sample_every = 8;
  config.cell.stats.sample_seed = options.seed;
  // Set-up probe: the same campus run for a single lookahead window, which is building
  // every shard plus one barrier and the readout.
  scenario::CampusConfig probe = config;
  probe.cell.warmup = 0;
  probe.cell.duration = config.backbone_delay;

  scenario::CampusResults first;
  size_t metrology_bytes = 0;
  int64_t rep_mismatches = 0;
  int64_t traced_mismatches = 0;
  RunReps(options, tracer, 3, report, [&](Tracer* t, int64_t span) {
    ++report->attempted;
    const double setup_s =
        RunCampus(probe, cells, options.threads, t, "CampusSim::Run[probe]", span).wall_s;
    CampusRun run = RunCampus(config, cells, options.threads, t, "CampusSim::Run", span);
    const uint64_t digest = CampusDigest(run.results);
    if (t != nullptr) {
      traced_mismatches += digest != report->digest;
    } else if (report->digest == 0) {
      report->digest = digest;
      metrology_bytes = run.metrology_bytes;
      first = run.results;
    } else {
      rep_mismatches += digest != report->digest;
    }
    return RepTimes{run.wall_s, setup_s, ToSeconds(kWarmup + kDuration),
                    run.results.mac_exchanges};
  });
  report->AddCheck("reps_identical", rep_mismatches);
  if (options.trace) {
    report->AddCheck("traced_counters_match", traced_mismatches);
  }

  // Serial reference: the sharded run must be bit-identical to one shard thread.
  const CampusRun serial = RunCampus(config, cells, 1, tracer, "CampusSim::Run[t1]", 0);
  report->AddCheck("one_thread_identical", CampusDigest(serial.results) != report->digest);

  std::vector<CellView> views;
  for (size_t i = 0; i < first.cells.size(); ++i) {
    views.push_back(CellView{&first.cells[i], &cells[i].stations});
  }
  AddOutcomeMetrics(views, report);
  const double run_s = Median(report->reps["run_s"]);
  auto& v = report->values;
  v["stats.memory_kb"] = static_cast<double>(metrology_bytes) / 1024.0;
  v["shard.windows"] = static_cast<double>(first.windows);
  v["shard.cross_shard_packets"] = static_cast<double>(first.cross_shard_packets);
  v["shard.backbone_drops"] = static_cast<double>(first.backbone_drops);
  v["shard.run_s_t1"] = serial.wall_s;
  v["shard.speedup"] = serial.wall_s / run_s;
  v["shard.window_us"] = run_s / static_cast<double>(first.windows) * 1e6;
}

}  // namespace tbf::perf

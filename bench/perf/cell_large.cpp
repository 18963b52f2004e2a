// cell_large: one 256-station cell on one thread. At 256 contenders the event kernel,
// the DCF medium, the AP with stock TBR and the transports do almost all the work;
// shards, sweeps, campaigns and traces are absent.
#include <numeric>

#include "perf.h"

namespace tbf::perf {
namespace {

constexpr int kStations = 256;
constexpr TimeNs kWarmup = Sec(20);
constexpr TimeNs kDuration = Sec(1000);

struct CellInputs {
  scenario::ScenarioConfig config;
  std::vector<scenario::StationSpec> stations;
  std::vector<scenario::FlowSpec> flows;
};

// Every seed gets the same multiset of station profiles - per rate, exactly 1/8 ARF,
// 1/4 lossy, 61% downlink and 1/8 with an extra UDP downlink, independently of each
// other - and only their order, hence which station id gets which, is seeded. That
// keeps the work of a rep nearly equal across seeds.
CellInputs MakeInputs(uint64_t seed) {
  constexpr phy::WifiRate kRungs[] = {phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps,
                                      phy::WifiRate::k5_5Mbps, phy::WifiRate::k11Mbps};
  std::vector<int> profiles(kStations);
  std::iota(profiles.begin(), profiles.end(), 0);
  InputRng rng(seed, 1);
  rng.Shuffle(&profiles);

  CellInputs in;
  in.config.qdisc = scenario::QdiscKind::kTbr;
  in.config.seed = seed;
  in.config.warmup = kWarmup;
  in.config.duration = kDuration;
  for (size_t i = 0; i < kStations; ++i) {
    const int p = profiles[i];
    const int k = p / 4;  // Index within the rate class, 0..63.
    scenario::StationSpec station;
    station.id = static_cast<NodeId>(i + 1);
    station.rate = kRungs[p % 4];
    station.arf = k % 8 == 0;
    station.per = (k / 8) % 4 == 0 ? 0.05 : 0.0;
    in.stations.push_back(station);

    scenario::FlowSpec bulk;
    bulk.client = station.id;
    bulk.direction =
        k % 5 < 3 ? scenario::Direction::kDownlink : scenario::Direction::kUplink;
    in.flows.push_back(bulk);
    if (k % 8 == 4) {
      scenario::FlowSpec udp;
      udp.client = station.id;
      udp.direction = scenario::Direction::kDownlink;
      udp.transport = scenario::Transport::kUdp;
      udp.udp_rate = Mbps(1);
      in.flows.push_back(udp);
    }
  }
  return in;
}

}  // namespace

void RunCellLarge(const RunOptions& options, Tracer* tracer, Report* report) {
  const CellInputs in = MakeInputs(options.seed);
  const double sim_s = ToSeconds(in.config.warmup + in.config.duration);

  scenario::Results first;
  uint64_t whole_run_digest = 0;
  CellCounters untraced_counters;
  int64_t rep_mismatches = 0;
  int64_t traced_mismatches = 0;
  RunReps(options, tracer, 3, report, [&](Tracer* t, int64_t span) {
    ++report->attempted;
    const Clock::time_point start = Clock::now();
    CellRun run = RunCell(in.config, in.stations, in.flows, t, span);
    const double run_s = SecondsBetween(start, Clock::now());
    const RepTimes times{run_s, run.build_s, sim_s, run.results.mac_exchanges};
    Fnv whole;
    AddWholeRunOutcomes(run.results, &whole);
    if (t != nullptr) {
      traced_mismatches += whole.value() != whole_run_digest ||
                           !run.counters.SameDynamics(untraced_counters);
      report->traced_cells = run.counters;
      return times;
    }
    Fnv digest;
    AddOutcomes(run.results, &digest);
    if (report->digest == 0) {
      report->digest = digest.value();
      whole_run_digest = whole.value();
      untraced_counters = run.counters;
      first = std::move(run.results);
    } else {
      rep_mismatches += digest.value() != report->digest;
    }
    return times;
  });

  report->AddCheck("reps_identical", rep_mismatches);
  if (options.trace) {
    report->AddCheck("traced_counters_match", traced_mismatches);
  }
  AddOutcomeMetrics({CellView{&first, &in.stations}}, report);
}

}  // namespace tbf::perf

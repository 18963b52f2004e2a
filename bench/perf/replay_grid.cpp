// replay_grid: 16 seeded residence-hall captures, each replayed under stock TBR and
// under fast-EWMA TBR, as 32 jobs on a SweepRunner with streaming stats. It exercises
// trace coalescing, the windowed StatsEngine, short-transfer TCP and bursty adaptive
// TBR - the TBR and stats layers used differently from cell_large - and it is the only
// workload on the sweep pool.
#include "perf.h"
#include "tbf/sweep/sweep_runner.h"
#include "tbf/trace/generators.h"
#include "tbf/trace/replay.h"

namespace tbf::perf {
namespace {

constexpr int kCaptures = 16;
// Eight users per capture. With sixteen, each user's 1/16 share of channel time is
// below stock TBR's 8% adjust threshold, so the adjuster never moves share, and a slow
// user's long transfer can outlast any fixed replay horizon.
constexpr int kUsers = 8;
constexpr TimeNs kCaptureLength = Sec(1800);
// Time after the last logged arrival for the replay to drain its backlog.
constexpr TimeNs kDrain = Sec(240);

struct Capture {
  trace::TraceLog log;
  std::vector<scenario::StationSpec> stations;
};

struct JobOut {
  CellRun run;
  double wall_s = 0.0;
};

std::vector<Capture> MakeCaptures(uint64_t seed) {
  InputRng rng(seed, 2);
  trace::ResidenceConfig capture;
  capture.duration = kCaptureLength;
  capture.users = kUsers;
  capture.mean_flow_bytes = 256.0 * 1024.0;
  capture.mean_think_sec = 15.0;
  // Caps the capture's offered load well below what the cell carries, so every
  // replay drains its backlog within kDrain.
  capture.ap_capacity_bps = 0.6e6;
  std::vector<Capture> out(kCaptures);
  for (Capture& c : out) {
    sim::Rng trace_rng(rng.Next());
    c.log = trace::GenerateResidenceTrace(capture, trace_rng);
    // Rate diversity with most users near the AP: one each at 1, 2 and 5.5 Mbps and
    // the rest at 11, in a seeded order - except that the generator's heavy user
    // (node 1) always sits at 11 Mbps.
    std::vector<phy::WifiRate> rates = {phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps,
                                        phy::WifiRate::k5_5Mbps};
    rates.insert(rates.end(), kUsers - 4, phy::WifiRate::k11Mbps);
    rng.Shuffle(&rates);
    rates.insert(rates.begin(), phy::WifiRate::k11Mbps);
    for (int u = 0; u < kUsers; ++u) {
      scenario::StationSpec station;
      station.id = static_cast<NodeId>(u + 1);
      station.rate = rates[static_cast<size_t>(u)];
      c.stations.push_back(station);
    }
  }
  return out;
}

}  // namespace

void RunReplayGrid(const RunOptions& options, Tracer* tracer, Report* report) {
  const Clock::time_point gen_start = Clock::now();
  const std::vector<Capture> captures = MakeCaptures(options.seed);
  report->values["trace.generate_s"] = SecondsBetween(gen_start, Clock::now());

  constexpr core::TbrMode kModes[] = {core::TbrMode::kStock, core::TbrMode::kFastEwma};

  std::vector<scenario::Results> first;
  int64_t transfers = 0;
  int64_t logged_bytes = 0;
  std::vector<double> job_s;
  std::vector<double> coalesce_s;
  double busy_frac = 0.0;
  uint64_t whole_run_digest = 0;
  CellCounters untraced_counters;
  int64_t short_jobs = 0;
  std::string short_detail;
  int64_t rep_mismatches = 0;
  int64_t traced_mismatches = 0;
  RunReps(options, tracer, 3, report, [&](Tracer* t, int64_t rep_span) {
    const Clock::time_point start = Clock::now();
    std::vector<sweep::ScenarioJob> jobs;
    std::vector<int64_t> bytes;
    {
      Span span(t, "TraceReplaySource", rep_span);
      for (const Capture& c : captures) {
        const trace::TraceReplaySource source(c.log);
        for (core::TbrMode mode : kModes) {
          sweep::ScenarioJob job;
          job.config.qdisc = scenario::QdiscKind::kTbr;
          job.config.tbr.mode = mode;
          job.config.seed = options.seed;
          job.config.warmup = 0;  // Transfers are timed individually, not windowed.
          job.config.duration = source.last_arrival() + kDrain;
          job.config.stats.window = Ms(500);
          job.config.stats.top_k = 4;
          job.config.stats.sample_every = 8;
          job.config.stats.sample_seed = options.seed;
          job.stations = c.stations;
          for (const trace::ReplayFlow& flow : source.flows()) {
            job.flows.push_back(scenario::MakeTraceReplaySpec(flow));
          }
          jobs.push_back(std::move(job));
          bytes.push_back(source.total_bytes());
        }
      }
    }
    const double coalesced_s = SecondsBetween(start, Clock::now());
    std::vector<JobOut> outs;
    double map_s = 0.0;
    double setup_s = 0.0;
    {
      sweep::SweepRunner pool(options.threads);
      setup_s = SecondsBetween(start, Clock::now());
      std::vector<std::function<JobOut()>> fns;
      for (const sweep::ScenarioJob& job : jobs) {
        fns.push_back([&job, t, rep_span] {
          Span span(t, "sweep.job", rep_span);
          const Clock::time_point job_start = Clock::now();
          JobOut out;
          out.run = RunCell(job.config, job.stations, job.flows, t, span.id());
          out.wall_s = SecondsBetween(job_start, Clock::now());
          return out;
        });
      }
      const Clock::time_point map_start = Clock::now();
      outs = pool.Map(std::move(fns));
      map_s = SecondsBetween(map_start, Clock::now());
    }
    const double run_s = SecondsBetween(start, Clock::now());

    RepTimes times{run_s, setup_s, 0.0, 0};
    Fnv whole;
    Fnv digest;
    CellCounters counters;
    for (size_t i = 0; i < outs.size(); ++i) {
      const scenario::Results& r = outs[i].run.results;
      times.sim_s += ToSeconds(jobs[i].config.warmup + jobs[i].config.duration);
      times.exchanges += r.mac_exchanges;
      AddWholeRunOutcomes(r, &whole);
      AddOutcomes(r, &digest);
      counters.Add(outs[i].run.counters);
    }
    report->attempted += static_cast<int64_t>(outs.size());
    if (t != nullptr) {
      traced_mismatches += whole.value() != whole_run_digest ||
                           !counters.SameDynamics(untraced_counters);
      report->traced_cells = counters;
      return times;
    }
    for (size_t i = 0; i < outs.size(); ++i) {
      int64_t delivered = 0;
      for (const scenario::FlowResult& flow : outs[i].run.results.flows) {
        delivered += flow.bytes_delivered;
      }
      if (delivered != bytes[i]) {
        ++short_jobs;
        short_detail = "job " + std::to_string(i) + " delivered " + std::to_string(delivered) +
                       " of " + std::to_string(bytes[i]) + " bytes";
      }
    }
    coalesce_s.push_back(coalesced_s);
    if (report->digest == 0) {
      report->digest = digest.value();
      whole_run_digest = whole.value();
      untraced_counters = counters;
      for (size_t i = 0; i < jobs.size(); i += std::size(kModes)) {
        logged_bytes += bytes[i];
        for (const scenario::FlowSpec& flow : jobs[i].flows) {
          transfers += static_cast<int64_t>(flow.replay.size());
        }
      }
      double busy_s = 0.0;
      for (JobOut& out : outs) {
        job_s.push_back(out.wall_s);
        busy_s += out.wall_s;
        first.push_back(std::move(out.run.results));
      }
      busy_frac = busy_s / (map_s * options.threads);
    } else {
      rep_mismatches += digest.value() != report->digest;
    }
    return times;
  });

  report->AddCheck("replay_delivers_logged_bytes", short_jobs, short_detail);
  report->AddCheck("reps_identical", rep_mismatches);
  if (options.trace) {
    report->AddCheck("traced_counters_match", traced_mismatches);
  }
  std::vector<CellView> cells;
  for (size_t i = 0; i < first.size(); ++i) {
    cells.push_back(CellView{&first[i], &captures[i / std::size(kModes)].stations});
  }
  AddOutcomeMetrics(cells, report);

  auto& v = report->values;
  v["trace.coalesce_ms"] = Median(coalesce_s) * 1e3;
  v["trace.transfers"] = static_cast<double>(transfers);
  v["trace.logged_bytes"] = static_cast<double>(logged_bytes);
  v["sweep.job_s_p50"] = Median(job_s);
  v["sweep.job_s_max"] = Quantile(job_s, 1.0);
  v["sweep.busy_frac"] = busy_frac;
}

}  // namespace tbf::perf

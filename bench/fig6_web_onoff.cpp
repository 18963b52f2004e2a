// Fig 6 (workload extension): web-era on/off traffic in a mixed-rate cell, RF vs TF.
// Each station runs an endless on/off web source - Pareto-sized downloads separated by
// exponential think times, the same distributions the synthetic traces are generated
// from - instead of a saturated bulk flow. The paper's argument (Section 2.1, Table 1)
// is that time-based fairness pays off exactly here: short transfers on fast nodes stop
// queueing behind slow-node airtime, so their download times collapse while slow nodes
// keep close to their single-rate baseline.
#include "bench_common.h"

#include <algorithm>

int main() {
  using namespace tbf;
  using namespace tbf::bench;

  PrintHeader("Fig 6 - web on/off workload, mixed-rate cell, RF vs TF",
              "workload axis of paper Table 1/Fig. 5: bursty web-era transfers, "
              "time-based fairness cuts fast nodes' download times");

  // Eight web users: five near the AP at 11 Mbps, three degraded (5.5 / 2 / 1 Mbps).
  const phy::WifiRate station_rates[] = {
      phy::WifiRate::k11Mbps, phy::WifiRate::k11Mbps, phy::WifiRate::k11Mbps,
      phy::WifiRate::k11Mbps, phy::WifiRate::k11Mbps, phy::WifiRate::k5_5Mbps,
      phy::WifiRate::k2Mbps,  phy::WifiRate::k1Mbps,
  };
  const struct {
    scenario::QdiscKind kind;
    core::TbrMode mode;
    const char* name;
  } notions[] = {
      {scenario::QdiscKind::kFifo, core::TbrMode::kStock, "Exp-Normal(RF)"},
      {scenario::QdiscKind::kTbr, core::TbrMode::kStock, "Exp-TBR(TF)"},
      // Fast-EWMA TBR (docs/schedulers.md): bursty web traffic is where the stock
      // regulator's 1/N shares bite, so this workload is its aggregate-throughput gate.
      // Appended to keep the stock rows byte-comparable with earlier captures.
      {scenario::QdiscKind::kTbr, core::TbrMode::kFastEwma, "Exp-TBR-fast"},
  };
  constexpr uint64_t kSeeds[] = {1, 2};

  std::vector<sweep::ScenarioJob> jobs;
  for (const auto& notion : notions) {
    for (const uint64_t seed : kSeeds) {
      sweep::ScenarioJob job;
      job.config = StandardConfig(notion.kind, Sec(150));
      job.config.tbr.mode = notion.mode;
      job.config.warmup = 0;  // Download times are measured per task, not windowed.
      job.config.seed = seed;
      NodeId id = 1;
      for (const phy::WifiRate rate : station_rates) {
        scenario::StationSpec station;
        station.id = id;
        station.rate = rate;
        job.stations.push_back(station);
        scenario::FlowSpec flow;
        flow.client = id;
        flow.direction = scenario::Direction::kDownlink;
        flow.model = scenario::TrafficModel::kOnOffWeb;
        flow.onoff.mean_flow_bytes = 256.0 * 1024.0;  // Web-era transfer sizes.
        flow.onoff.pareto_alpha = 1.3;
        flow.onoff.mean_think_sec = 5.0;
        job.flows.push_back(flow);
        ++id;
      }
      jobs.push_back(std::move(job));
    }
  }
  const std::vector<scenario::Results> results = RunSweepScenarios(jobs);

  stats::Table table({"config", "tasks done", "mean dl s (11M)", "mean dl s (slow)",
                      "p95 dl s (11M)", "aggregate Mbps"});
  size_t job_idx = 0;
  for (const auto& notion : notions) {
    // Pool the per-seed runs (each seed is a different arrival pattern).
    int64_t tasks = 0;
    double aggregate = 0.0;
    std::vector<double> fast_dl, slow_dl;
    for (size_t s = 0; s < std::size(kSeeds); ++s) {
      const scenario::Results& res = results[job_idx++];
      tasks += res.tasks_completed;
      aggregate += res.AggregateMbps();
      for (const auto& fr : res.flows) {
        const bool fast = station_rates[fr.client - 1] == phy::WifiRate::k11Mbps;
        for (const TimeNs d : fr.task_durations) {
          (fast ? fast_dl : slow_dl).push_back(ToSeconds(d));
        }
      }
    }
    auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) {
        sum += x;
      }
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    std::sort(fast_dl.begin(), fast_dl.end());
    const double p95 =
        fast_dl.empty() ? 0.0 : fast_dl[fast_dl.size() * 95 / 100];
    table.AddRow({notion.name,
                  std::to_string(tasks / static_cast<int64_t>(std::size(kSeeds))),
                  stats::Table::Num(mean(fast_dl), 2), stats::Table::Num(mean(slow_dl), 2),
                  stats::Table::Num(p95, 2),
                  stats::Table::Num(aggregate / std::size(kSeeds), 2)});
  }
  table.Print();
  std::printf("\nReading: under RF every web download on a fast node queues behind "
              "slow-node airtime;\nunder TF the 11 Mbps users' download times drop while "
              "slow users stay near their\nsingle-rate baseline - the Table 1 "
              "AvgTaskTime win replayed with bursty traffic.\n");
  PrintSweepFooter();
  return 0;
}

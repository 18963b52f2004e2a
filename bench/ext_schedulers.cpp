// Extension: scheduler shoot-out on a congested mixed-rate hotspot. FIFO vs per-node
// round robin vs DRR (byte fair) vs TBR (time fair) vs weighted TBR, on five clients with
// diverse rates. Reports goodput, airtime, aggregate, and Jain fairness indices over both
// resources.
#include "bench_common.h"

#include "tbf/stats/meters.h"

namespace {

using namespace tbf;
using namespace tbf::bench;

sweep::ScenarioJob HotspotJob(scenario::QdiscKind kind, core::TbrMode mode,
                              bool weighted) {
  sweep::ScenarioJob job;
  job.config = StandardConfig(kind, Sec(25));
  job.config.tbr.mode = mode;
  const phy::WifiRate rates[] = {phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps,
                                 phy::WifiRate::k5_5Mbps, phy::WifiRate::k11Mbps,
                                 phy::WifiRate::k11Mbps};
  for (NodeId id = 1; id <= 5; ++id) {
    scenario::StationSpec station;
    station.id = id;
    station.rate = rates[id - 1];
    job.stations.push_back(station);
    scenario::FlowSpec flow;
    flow.client = id;
    flow.direction = scenario::Direction::kDownlink;
    flow.transport = scenario::Transport::kTcp;
    job.flows.push_back(flow);
  }
  if (weighted) {
    // Tenant 5 pays for a double share; needs the live TBR, hence the configure hook.
    job.configure = [](scenario::Wlan& wlan) { wlan.tbr()->SetWeight(5, 2.0); };
  }
  return job;
}

}  // namespace

int main() {
  PrintHeader("Extension - AP scheduler comparison on a 5-client mixed-rate hotspot",
              "synthesis of paper Sections 2 and 4: time fairness maximizes aggregate "
              "throughput; throughput fairness maximizes goodput equality");

  using core::TbrMode;
  const struct {
    const char* name;
    scenario::QdiscKind kind;
    TbrMode mode;
    bool weighted;
  } cases[] = {
      {"FIFO", scenario::QdiscKind::kFifo, TbrMode::kStock, false},
      {"RoundRobin", scenario::QdiscKind::kRoundRobin, TbrMode::kStock, false},
      {"DRR", scenario::QdiscKind::kDrr, TbrMode::kStock, false},
      {"OAR-burst", scenario::QdiscKind::kOarBurst, TbrMode::kStock, false},
      {"TBR", scenario::QdiscKind::kTbr, TbrMode::kStock, false},
      {"TBR w=2 on n5", scenario::QdiscKind::kTbr, TbrMode::kStock, true},
      // Fast-EWMA TBR: same regulator, demand-driven reallocation (see
      // docs/schedulers.md). Appended so the stock rows above stay byte-comparable
      // with earlier captures.
      {"TBR-fast", scenario::QdiscKind::kTbr, TbrMode::kFastEwma, false},
  };
  std::vector<sweep::ScenarioJob> jobs;
  for (const auto& c : cases) {
    jobs.push_back(HotspotJob(c.kind, c.mode, c.weighted));
  }
  const std::vector<scenario::Results> results = RunSweepScenarios(jobs);

  stats::Table table({"scheduler", "n1(1M)", "n2(2M)", "n3(5.5M)", "n4(11M)", "n5(11M)",
                      "total Mbps", "Jain(goodput)", "Jain(airtime)"});
  size_t job = 0;
  for (const auto& c : cases) {
    const scenario::Results& res = results[job++];
    std::vector<double> goodputs;
    std::vector<double> airtimes;
    std::vector<std::string> row = {c.name};
    for (NodeId id = 1; id <= 5; ++id) {
      goodputs.push_back(res.GoodputMbps(id));
      airtimes.push_back(res.AirtimeShare(id));
      row.push_back(stats::Table::Num(res.GoodputMbps(id), 2));
    }
    row.push_back(stats::Table::Num(res.AggregateMbps(), 2));
    row.push_back(stats::Table::Num(stats::JainIndex(goodputs)));
    row.push_back(stats::Table::Num(stats::JainIndex(airtimes)));
    table.AddRow(row);
  }
  table.Print();
  PrintSweepFooter();
  return 0;
}

// Trace-replay bench: a campus-style capture driven through the full simulated cell,
// DCF/FIFO (throughput-fair) vs TBR (time-fair), read out with the per-flow latency
// percentile metrology. This is the workload the paper's Section 5 deployment argument
// is about: real arrival processes (heavy-tailed transfers, think times, concurrent
// users) instead of synthetic saturation - and the question it answers is what the
// latency *distribution* (p50/p95/p99) of user-visible transfer times does when the AP
// switches to time-based fairness.
#include "bench_common.h"

#include "tbf/trace/generators.h"
#include "tbf/trace/replay.h"

int main() {
  using namespace tbf;
  using namespace tbf::bench;

  PrintHeader("Trace replay - campus capture under RF vs TF, latency percentiles",
              "paper Fig. 5 workload structure (Whittemore residence trace) replayed "
              "through the paper Fig. 6 regulator");

  // A busy stretch at a campus AP: heavy-tailed downloads, seconds-scale think times,
  // a handful of concurrent users. Generated with the residence-trace generator, then
  // recovered into per-user transfer schedules exactly the way an operator's pcap
  // would be.
  trace::ResidenceConfig capture;
  capture.duration = Sec(120);
  capture.users = 8;
  capture.mean_flow_bytes = 256.0 * 1024.0;
  capture.mean_think_sec = 15.0;
  capture.ap_capacity_bps = 3.5e6;  // Congested stretches, but a drainable total load.
  sim::Rng trace_rng(41);
  const trace::TraceLog log = trace::GenerateResidenceTrace(capture, trace_rng);
  const trace::TraceReplaySource source(log);

  // The capture's users sit at mixed distances from the AP: rate diversity is the
  // paper's precondition, so the replay assigns the slow rungs to three of the eight.
  auto rate_for = [](NodeId node) {
    switch (node) {
      case 2:
        return phy::WifiRate::k1Mbps;
      case 5:
        return phy::WifiRate::k2Mbps;
      case 7:
        return phy::WifiRate::k5_5Mbps;
      default:
        return phy::WifiRate::k11Mbps;
    }
  };

  const struct {
    scenario::QdiscKind kind;
    core::TbrMode mode;
    const char* name;
  } notions[] = {
      {scenario::QdiscKind::kFifo, core::TbrMode::kStock, "Exp-Normal(RF)"},
      {scenario::QdiscKind::kTbr, core::TbrMode::kStock, "Exp-TBR(TF)"},
      // Fast-EWMA TBR racing stock TBR on the same capture: the scorecard row
      // docs/schedulers.md quotes. Appended after the stock pair so earlier captures
      // of the first two rows stay byte-comparable.
      {scenario::QdiscKind::kTbr, core::TbrMode::kFastEwma, "Exp-TBR-fast"},
  };

  std::vector<sweep::ScenarioJob> jobs;
  for (const auto& notion : notions) {
    sweep::ScenarioJob job;
    job.config = StandardConfig(notion.kind, source.last_arrival() + Sec(180));
    job.config.tbr.mode = notion.mode;
    job.config.warmup = 0;  // Latency is per transfer, not windowed.
    job.config.seed = 2;
    for (NodeId id = 1; id <= capture.users; ++id) {
      scenario::StationSpec station;
      station.id = id;
      station.rate = rate_for(id);
      job.stations.push_back(station);
    }
    for (const trace::ReplayFlow& flow : source.flows()) {
      job.flows.push_back(scenario::MakeTraceReplaySpec(flow));
    }
    jobs.push_back(std::move(job));
  }
  const std::vector<scenario::Results> results = RunSweepScenarios(jobs);

  int64_t logged_transfers = 0;
  for (const trace::ReplayFlow& flow : source.flows()) {
    logged_transfers += static_cast<int64_t>(flow.tasks.size());
  }
  std::printf("Capture: %zu flows, %lld transfers, %.1f MB over %.0f s\n\n",
              source.flows().size(), static_cast<long long>(logged_transfers),
              static_cast<double>(source.total_bytes()) / 1e6,
              ToSeconds(source.last_arrival()));

  // One delivered-bytes accounting shared by the table's "bytes ok" cell and the exit
  // gate below, so the two can never disagree.
  std::vector<int64_t> delivered_by_job(results.size(), 0);
  for (size_t i = 0; i < results.size(); ++i) {
    for (const auto& fr : results[i].flows) {
      delivered_by_job[i] += fr.bytes_delivered;
    }
  }

  stats::Table table({"config", "transfers", "bytes ok", "p50 xfer s", "p95 xfer s",
                      "p99 xfer s", "p95 queue ms", "p50 rtt ms", "agg Mbps"});
  for (size_t i = 0; i < jobs.size(); ++i) {
    const scenario::Results& res = results[i];
    const int64_t delivered = delivered_by_job[i];
    table.AddRow({notions[i].name, std::to_string(res.tasks_completed),
                  delivered == source.total_bytes() ? "exact" : "SHORT",
                  stats::Table::Num(ToSeconds(res.task_latency.p50), 2),
                  stats::Table::Num(ToSeconds(res.task_latency.p95), 2),
                  stats::Table::Num(ToSeconds(res.task_latency.p99), 2),
                  stats::Table::Num(res.ap_queue_delay.P95Ms(), 1),
                  stats::Table::Num(res.rtt.P50Ms(), 1),
                  stats::Table::Num(res.AggregateMbps(), 2)});
  }
  table.Print();

  std::printf("\nReading: the replayed byte volume is identical under both policies "
              "(\"exact\" = every\nlogged transfer delivered its logged bytes); what "
              "moves is the latency distribution.\nTransfer times are sojourn times "
              "from each transfer's *logged* arrival, so backlog\nwait counts. "
              "Time-based fairness trims the median that rate anomaly inflates; "
              "its\ntail (p95/p99) carries both the slow users' longer transfers and "
              "stock TBR's 1/N\nshares: its 500 ms adjuster donates an idle user's "
              "share only while that user leaves\nat least 8%% of the channel unused, "
              "so part of every idle share stays idle for good.\nFast-EWMA TBR "
              "reallocates from demand every 50 ms instead.\n");

  // Non-zero exit when a replay under-delivered: CI runs this binary as a determinism
  // gate, and a silent short count would make its diff-based check meaningless.
  for (const int64_t delivered : delivered_by_job) {
    if (delivered != source.total_bytes()) {
      std::printf("ERROR: replay delivered %lld of %lld logged bytes\n",
                  static_cast<long long>(delivered),
                  static_cast<long long>(source.total_bytes()));
      return 1;
    }
  }
  PrintSweepFooter();
  return 0;
}

// A 16-AP office building on the sharded campus simulator: every floor quadrant has
// its own BSS - mixed-rate stations, bulk TCP both ways plus a short transfer per cell
// - and all of it backhauls to one server farm over the wired backbone. The building
// is simulated twice, FIFO (throughput-fair) vs TBR (time-fair), each run partitioned
// into 17 shards (16 cells + the wired core) advancing in conservative lookahead
// windows. The readout is the paper's story at building scale: time-based fairness
// lifts every cell's aggregate and collapses the short transfers' completion times,
// cell by cell, with bit-identical results no matter how many shard threads ran.
#include <cstdio>

#include "tbf/shard/campus_sim.h"
#include "tbf/stats/table.h"

namespace {

using namespace tbf;

constexpr int kAps = 16;
constexpr int kStationsPerCell = 8;
constexpr int64_t kShortTransferBytes = 100'000;

// One floor quadrant: eight stations, two on slow rungs (the far corners), bulk TCP
// alternating up/down, and one finite "send the deck" transfer on a fast station.
scenario::BssSpec MakeQuadrant() {
  scenario::BssSpec bss;
  for (NodeId id = 1; id <= kStationsPerCell; ++id) {
    scenario::StationSpec station;
    station.id = id;
    station.rate = id <= 2 ? phy::WifiRate::k2Mbps : phy::WifiRate::k11Mbps;
    bss.stations.push_back(station);

    scenario::FlowSpec flow;
    flow.client = id;
    flow.direction = id % 2 == 0 ? scenario::Direction::kDownlink
                                 : scenario::Direction::kUplink;
    flow.transport = scenario::Transport::kTcp;
    if (id == 3) {
      flow.task_bytes = kShortTransferBytes;  // The deck upload on a fast station.
    }
    bss.flows.push_back(flow);
  }
  return bss;
}

scenario::CampusResults RunBuilding(scenario::QdiscKind qdisc) {
  scenario::CampusConfig config;
  config.cell.qdisc = qdisc;
  config.cell.seed = 11;
  config.cell.warmup = Sec(1);
  config.cell.duration = Sec(10);

  shard::CampusSim building(config);  // Shard threads from TBF_SHARD_THREADS.
  for (int i = 0; i < kAps; ++i) {
    building.AddBss(MakeQuadrant());
  }
  const scenario::CampusResults results = building.Run();
  const char* name = qdisc == scenario::QdiscKind::kTbr ? "Exp-TBR(TF):" : "Exp-Normal(RF):";
  std::printf("%-14s %d cells, %d shards, %lld lookahead windows, "
              "%lld packets crossed shards\n",
              name, kAps, building.shard_count(), static_cast<long long>(results.windows),
              static_cast<long long>(results.cross_shard_packets));
  // The thread count is the only line that depends on TBF_SHARD_THREADS.
  std::printf("[wall] %s %d shards on %d threads\n", name, building.shard_count(),
              building.thread_count());
  return results;
}

}  // namespace

int main() {
  using namespace tbf;

  std::printf("=== campus_cell: a 16-AP building under RF vs TF, sharded ===\n\n");

  const scenario::CampusResults fifo = RunBuilding(scenario::QdiscKind::kFifo);
  const scenario::CampusResults tbr = RunBuilding(scenario::QdiscKind::kTbr);

  stats::Table table({"cell", "RF Mbps", "TF Mbps", "RF task s", "TF task s",
                      "RF p95 q ms", "TF p95 q ms"});
  for (size_t i = 0; i < fifo.cells.size(); ++i) {
    const scenario::Results& rf = fifo.cells[i];
    const scenario::Results& tf = tbr.cells[i];
    table.AddRow({std::to_string(i), stats::Table::Num(rf.AggregateMbps(), 2),
                  stats::Table::Num(tf.AggregateMbps(), 2),
                  stats::Table::Num(rf.avg_task_time_sec, 2),
                  stats::Table::Num(tf.avg_task_time_sec, 2),
                  stats::Table::Num(rf.ap_queue_delay.P95Ms(), 1),
                  stats::Table::Num(tf.ap_queue_delay.P95Ms(), 1)});
  }
  table.Print();

  std::printf("\nBuilding aggregate: %.1f Mbps under RF, %.1f Mbps under TF "
              "(%d cells; every cell\nsees the paper's single-cell gain because cells "
              "only couple through the backbone).\nThe task column is each cell's "
              "short-transfer completion time: time-based fairness\nstops the slow "
              "rungs from inflating it, in all %d cells at once.\n",
              fifo.aggregate_bps / 1e6, tbr.aggregate_bps / 1e6, kAps, kAps);
  return 0;
}

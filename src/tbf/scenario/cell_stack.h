// One BSS, built one way.
//
// A CellStack is the wireless half of a cell in one Simulator: the loss models, the DCF
// medium, the AP with its qdisc, the stations and the cell's metrology. scenario::Wlan
// is a CellStack plus a wired server in the same Simulator; shard::CampusSim runs one
// CellStack per cell shard and keeps every server end in its core shard. The two
// differ only in where a flow's server end lives, so that end is the caller's
// FlowSide, and flows are built with StartFlow (flow_engine.h) between it and
// ClientSide().
#ifndef TBF_SCENARIO_CELL_STACK_H_
#define TBF_SCENARIO_CELL_STACK_H_

#include <map>
#include <memory>
#include <vector>

#include "tbf/ap/access_point.h"
#include "tbf/core/tbr.h"
#include "tbf/mac/medium.h"
#include "tbf/net/host.h"
#include "tbf/phy/channel.h"
#include "tbf/rateadapt/rate_controller.h"
#include "tbf/scenario/flow_engine.h"
#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sim/random.h"
#include "tbf/sim/simulator.h"
#include "tbf/stats/engine.h"

namespace tbf::scenario {

class CellStack {
 public:
  // Builds the cell in `sim` with an Rng seeded from `seed`, sending uplink frames
  // addressed beyond the cell to `uplink`. Builds TBR for the declared station count
  // (its contention divisor, so per-packet charges never depend on association order),
  // associates every station up front, wires the client agent when configured, and
  // taps the AP's queue delays into `stats`. `sim` and `pool` must outlive the stack.
  CellStack(const ScenarioConfig& config, const std::vector<StationSpec>& stations,
            uint64_t seed, sim::Simulator* sim, net::PacketPool* pool,
            ap::AccessPoint::ForwardFn uplink);

  CellStack(const CellStack&) = delete;
  CellStack& operator=(const CellStack&) = delete;

  // The client end of a flow on `client`'s station.
  FlowSide ClientSide(NodeId client);
  net::WirelessHost* host(NodeId id) const;

  // At the end of warmup: snapshots the medium's airtime and busy time and each of
  // `flows`' delivered bytes, the baselines ReadOut subtracts.
  void SnapshotWarmup(const FlowList& flows);

  // Fills `out` with the measurement window's readout of this cell and its `flows`:
  // airtime shares, per-flow results, this cell's series, utilization and MAC/AP
  // counters. Task and RTT meters are read from each flow's engine side, queue delays
  // from this cell. The cell-wide latency sketches and their summaries are left to the
  // caller: a Wlan copies its engine's meters, a campus merges each cell's per-flow
  // sketches. Stats engines must be flushed first.
  void ReadOut(TimeNs duration, const FlowList& flows, Results* out) const;

  sim::Simulator* const sim;
  net::PacketPool* const pool;
  sim::Rng rng;
  // This cell's metrology: queue-delay taps, the delivered bytes of flows received in
  // the cell, and the task/RTT meters of engines on the cell side.
  stats::StatsEngine stats;
  phy::FixedPerLink fixed_loss;
  phy::SnrLossModel snr_loss;
  phy::DispatchLossModel loss;
  mac::Medium medium;
  rateadapt::CompositeRateController ap_rates;
  // Declared before `ap`: its qdisc is made while `ap` is built and sets this when the
  // config selects TBR.
  core::TimeBasedRegulator* tbr = nullptr;
  ap::AccessPoint ap;
  net::Demux demux;
  std::map<NodeId, std::unique_ptr<net::WirelessHost>> hosts;

 private:
  std::map<NodeId, TimeNs> airtime_at_warmup_;
  TimeNs busy_at_warmup_ = 0;
};

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_CELL_STACK_H_

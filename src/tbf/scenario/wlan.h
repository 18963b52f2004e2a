// Declarative WLAN scenario builder.
//
// Describes a single-cell infrastructure WLAN - stations (rate, loss), flows (TCP/UDP,
// direction, task size, app limit) and the AP queueing discipline - then builds the full
// stack (a scenario::CellStack plus a wired backbone and server, and the transports),
// runs it, and returns per-node goodput, airtime shares and per-flow results measured
// after a warmup. The packet-level single-cell benches and examples run through this
// class; the multi-AP campus ones use shard::CampusSim, which builds each of its cells
// from the same CellStack.
#ifndef TBF_SCENARIO_WLAN_H_
#define TBF_SCENARIO_WLAN_H_

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tbf/ap/access_point.h"
#include "tbf/core/tbr.h"
#include "tbf/mac/medium.h"
#include "tbf/net/host.h"
#include "tbf/net/tcp.h"
#include "tbf/net/udp.h"
#include "tbf/phy/channel.h"
#include "tbf/rateadapt/rate_controller.h"
#include "tbf/scenario/results.h"
#include "tbf/sim/simulator.h"
#include "tbf/stats/engine.h"
#include "tbf/stats/quantile_sketch.h"
#include "tbf/trace/distributions.h"
#include "tbf/trace/replay.h"

namespace tbf::scenario {

// Each wire enum below is contiguous from 0 and names its last value kLast, so a decoder
// range-checks a raw value with `raw <= kLast`. kLast is an alias, not a case.
enum class Direction { kUplink, kDownlink, kLast = kDownlink };
enum class Transport { kTcp, kUdp, kLast = kUdp };
// kTbr runs the paper's regulator with config.tbr as-is; config.tbr.mode picks the
// policy (stock or fast-EWMA, docs/schedulers.md).
enum class QdiscKind {
  kFifo,
  kRoundRobin,
  kDrr,
  kTbr,
  kOarBurst,
  kLast = kOarBurst,
};

// What the application on top of a flow looks like.
//  kBulk:         one transfer - unbounded when task_bytes == 0, a single finite task
//                 otherwise (the classic fluid/task split).
//  kTaskSequence: task_count finite transfers of task_bytes each, back to back on the
//                 same connection (task_gap apart), each reporting its completion time -
//                 the packet-level counterpart of model::RunTaskModel's task lists.
//  kOnOffWeb:     endless web-era on/off source - Pareto-sized transfers separated by
//                 exponential think times (trace/distributions.h samplers, the same
//                 distributions the synthetic trace generators draw from).
//  kTraceReplay:  replays one trace::ReplayFlow (FlowSpec::replay): each logged transfer
//                 launches at its logged offset from the flow's start - or when the
//                 previous transfer completes, whichever is later - and delivers exactly
//                 its logged bytes via the restartable finite-task sources.
enum class TrafficModel {
  kBulk,
  kTaskSequence,
  kOnOffWeb,
  kTraceReplay,
  kLast = kTraceReplay,
};

struct StationSpec {
  NodeId id = kInvalidNodeId;
  phy::WifiRate rate = phy::WifiRate::k11Mbps;
  double per = 0.0;   // Reference frame loss probability (1500-byte frames).
  bool arf = false;   // Adapt rate with ARF instead of pinning it.
  // When set (non-zero), the station's loss follows the SNR-margin model instead of the
  // fixed PER: error rate couples to the chosen rate, so ARF settles at the SNR-correct
  // rung. `rate` is then just the starting rate (use phy::RateForSnr for consistency).
  double snr_db = 0.0;
  size_t queue_limit = 50;

  friend bool operator==(const StationSpec&, const StationSpec&) = default;
};

struct FlowSpec {
  NodeId client = kInvalidNodeId;
  Direction direction = Direction::kUplink;
  Transport transport = Transport::kTcp;
  TrafficModel model = TrafficModel::kBulk;
  int64_t task_bytes = 0;       // kBulk: 0 = unbounded. kTaskSequence: per-task size.
  int task_count = 1;           // kTaskSequence: number of back-to-back transfers.
  TimeNs task_gap = 0;          // kTaskSequence: idle gap between transfers.
  trace::OnOffSampler onoff;    // kOnOffWeb: flow-size / think-time distributions.
  // kTraceReplay: the logged transfers, in trace order. Task launch offsets are taken
  // relative to the first task's timestamp, anchored at the flow's actual start (so a
  // shifted `start` shifts the whole replay without changing its internal timing).
  std::vector<trace::ReplayTask> replay;
  BitRate app_limit_bps = 0;    // TCP sender-side application cap (0 = none).
  BitRate udp_rate = Mbps(8);   // CBR rate for UDP sources.
  int packet_bytes = 1500;      // IP datagram size.
  TimeNs start = 0;

  friend bool operator==(const FlowSpec&, const FlowSpec&) = default;
};

// Converts a recovered trace flow into a kTraceReplay FlowSpec - the one place the
// ReplayFlow -> FlowSpec mapping lives. Pass it to Wlan::AddFlow or a ScenarioJob; the
// station for `flow.node` is declared separately.
FlowSpec MakeTraceReplaySpec(const trace::ReplayFlow& flow,
                             Transport transport = Transport::kTcp);

// Thrown by Wlan::Build (and hence Run) when the declared scenario is invalid. A
// misconfigured job fails fast with a diagnostic instead of producing undefined
// downstream behavior (divide-by-zero rates, unbounded loops, out-of-range node ids);
// sweep::SweepRunner propagates it with the failing job's identity and the campaign
// layer rejects the manifest before dispatching anything.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// What varies between scenarios. Every cell runs the 802.11b-compatible MAC profile
// (phy::MixedModeTimings) with the AP buffers of ap/qdisc.h; a single cell's server sits
// behind a fixed wired hop (wlan.cpp), a campus cell's behind its backbone link.
struct ScenarioConfig {
  QdiscKind qdisc = QdiscKind::kFifo;
  core::TbrConfig tbr;          // Used when qdisc == kTbr.
  uint64_t seed = 1;
  TimeNs warmup = Sec(2);       // Stats ignore this prefix.
  TimeNs duration = Sec(30);    // Measurement window length.
  // Metrology policy (windowed percentiles, sampled per-flow retention). The default
  // is exact retention: every flow retained, whole run one window.
  stats::StatsConfig stats;

  friend bool operator==(const ScenarioConfig&, const ScenarioConfig&) = default;
};

// Validates a full scenario declaration up front: config ranges (positive duration,
// non-negative warmup, a positive TBR bucket and a station for TBR to regulate),
// station bounds (ids in (0, kServerId), unique, PER in [0,1], finite SNR, nonzero
// queues), and per-flow requirements (declared station, packet size larger than its
// transport header, task_bytes > 0 where a finite task is implied, finite positive
// on/off distribution parameters, non-empty sorted replay logs). Returns an empty
// string when valid, else a one-line diagnostic naming the offending entry.
std::string ValidateScenario(const ScenarioConfig& config,
                             const std::vector<StationSpec>& stations,
                             const std::vector<FlowSpec>& flows);

struct FlowEngine;
class CellStack;

class Wlan {
 public:
  explicit Wlan(ScenarioConfig config = {});
  ~Wlan();

  Wlan(const Wlan&) = delete;
  Wlan& operator=(const Wlan&) = delete;

  // Declaration phase (before Run).
  StationSpec& AddStation(NodeId id, phy::WifiRate rate, double per = 0.0);
  StationSpec& AddStation(StationSpec spec);
  FlowSpec& AddFlow(FlowSpec spec);

  // Convenience: one saturated TCP flow for `client` in `direction`.
  FlowSpec& AddBulkTcp(NodeId client, Direction direction);
  FlowSpec& AddSaturatingUdp(NodeId client, Direction direction);
  // Web-like on/off TCP source (Pareto transfers, exponential think times).
  FlowSpec& AddWebOnOff(NodeId client, Direction direction);
  // `count` finite TCP transfers of `bytes` each, back to back.
  FlowSpec& AddTaskSequence(NodeId client, Direction direction, int64_t bytes, int count);

  // Constructs the full stack without running. Call when pre-run configuration of live
  // components is needed (e.g. TBR weights); Run() builds implicitly otherwise.
  void BuildNow();

  // Builds the stack and runs warmup + duration. Returns measured results.
  Results Run();

  // Post-run (or mid-run via callbacks) introspection. tbr(), medium() and host()
  // return null before the stack is built.
  core::TimeBasedRegulator* tbr();
  mac::Medium* medium();
  sim::Simulator& simulator() { return sim_; }
  net::PacketPool& packet_pool() { return packet_pool_; }
  net::WirelessHost* host(NodeId id);
  // The run's metrology (complete after Run(); see docs/metrology.md). Empty before
  // the stack is built.
  const stats::StatsEngine& stats_engine() const;

 private:
  void Build();

  ScenarioConfig config_;
  std::vector<StationSpec> station_specs_;
  std::vector<FlowSpec> flow_specs_;

  // Runtime (populated by Build). The packet pool sits next to the Simulator and is
  // declared right after it so it outlives every component that can hold packets
  // (members below are destroyed first); each scenario owns its own pool, so sweep
  // workers never share one (TBF_SWEEP_THREADS stays race-free and bit-identical).
  sim::Simulator sim_;
  net::PacketPool packet_pool_;
  std::unique_ptr<CellStack> cell_;
  std::unique_ptr<net::WiredLink> wired_;
  std::unique_ptr<net::WiredHost> server_;
  std::vector<std::unique_ptr<FlowEngine>> flows_;
  bool built_ = false;
};

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_WLAN_H_

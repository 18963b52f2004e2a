#include "tbf/scenario/wlan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tbf/scenario/cell_stack.h"
#include "tbf/scenario/flow_engine.h"
#include "tbf/util/logging.h"

namespace tbf::scenario {

Wlan::Wlan(ScenarioConfig config) : config_(config) {}

Wlan::~Wlan() = default;

StationSpec& Wlan::AddStation(NodeId id, phy::WifiRate rate, double per) {
  StationSpec spec;
  spec.id = id;
  spec.rate = rate;
  spec.per = per;
  return AddStation(spec);
}

StationSpec& Wlan::AddStation(StationSpec spec) {
  TBF_CHECK(!built_) << "AddStation after Run";
  station_specs_.push_back(spec);  // Id bounds etc. are checked by ValidateScenario.
  return station_specs_.back();
}

FlowSpec& Wlan::AddFlow(FlowSpec spec) {
  TBF_CHECK(!built_) << "AddFlow after Run";
  flow_specs_.push_back(spec);
  return flow_specs_.back();
}

FlowSpec& Wlan::AddBulkTcp(NodeId client, Direction direction) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kTcp;
  return AddFlow(spec);
}

FlowSpec& Wlan::AddSaturatingUdp(NodeId client, Direction direction) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kUdp;
  spec.udp_rate = Mbps(9);  // Above any single DSSS link's capacity.
  return AddFlow(spec);
}

FlowSpec& Wlan::AddWebOnOff(NodeId client, Direction direction) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kTcp;
  spec.model = TrafficModel::kOnOffWeb;
  return AddFlow(spec);
}

FlowSpec& Wlan::AddTaskSequence(NodeId client, Direction direction, int64_t bytes,
                                int count) {
  FlowSpec spec;
  spec.client = client;
  spec.direction = direction;
  spec.transport = Transport::kTcp;
  spec.model = TrafficModel::kTaskSequence;
  spec.task_bytes = bytes;
  spec.task_count = count;
  return AddFlow(spec);
}

FlowSpec MakeTraceReplaySpec(const trace::ReplayFlow& flow, Transport transport) {
  FlowSpec spec;
  spec.client = flow.node;
  spec.direction = flow.downlink ? Direction::kDownlink : Direction::kUplink;
  spec.transport = transport;
  spec.model = TrafficModel::kTraceReplay;
  spec.replay = flow.tasks;
  return spec;
}

namespace {

// A single cell's wired hop between the AP and the server: 100 Mbit/s Ethernet, 500 us
// one way.
constexpr BitRate kWiredRate = Mbps(100);
constexpr TimeNs kWiredDelay = Us(500);

// Appends printf-free formatted context for one flow's diagnostic.
std::string FlowTag(size_t index, const FlowSpec& spec) {
  return "flow #" + std::to_string(index) + " (client " + std::to_string(spec.client) + ")";
}

// Range tests that fail NaN and infinities: a check written as `x < bound` passes NaN,
// because every comparison with NaN is false.
bool FiniteAtLeast(double x, double lo) { return std::isfinite(x) && x >= lo; }
bool FiniteAbove(double x, double lo) { return std::isfinite(x) && x > lo; }

}  // namespace

std::string ValidateScenario(const ScenarioConfig& config,
                             const std::vector<StationSpec>& stations,
                             const std::vector<FlowSpec>& flows) {
  if (config.duration <= 0) {
    return "config: duration must be > 0";
  }
  if (config.warmup < 0) {
    return "config: warmup must be >= 0";
  }
  if (config.qdisc == QdiscKind::kTbr) {
    if (config.tbr.bucket_depth <= 0 || config.tbr.initial_tokens < 0) {
      return "config: TBR needs bucket_depth > 0, initial_tokens >= 0";
    }
    if (stations.empty()) {
      return "config: TBR needs a station (its contention divisor is the station count)";
    }
  }

  if (stations.size() >= static_cast<size_t>(kServerId)) {
    return "stations: at most " + std::to_string(kServerId - 1) + " clients fit below "
           "kServerId";
  }
  std::vector<NodeId> seen;
  seen.reserve(stations.size());
  for (size_t i = 0; i < stations.size(); ++i) {
    const StationSpec& s = stations[i];
    const std::string tag = "station #" + std::to_string(i) + " (id " +
                            std::to_string(s.id) + ")";
    if (s.id <= 0 || s.id >= kServerId) {
      return tag + ": client ids must be in (0, " + std::to_string(kServerId) + ")";
    }
    if (std::find(seen.begin(), seen.end(), s.id) != seen.end()) {
      return tag + ": duplicate station id";
    }
    seen.push_back(s.id);
    if (!(s.per >= 0.0 && s.per <= 1.0)) {  // NaN fails the conjunction.
      return tag + ": per must be in [0, 1]";
    }
    if (!FiniteAtLeast(s.snr_db, 0.0)) {
      return tag + ": snr_db must be finite and >= 0 (0 disables the SNR model)";
    }
    if (s.queue_limit == 0) {
      return tag + ": queue_limit must be > 0";
    }
  }

  for (size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    if (std::find(seen.begin(), seen.end(), f.client) == seen.end()) {
      return FlowTag(i, f) + ": references an undeclared station";
    }
    const int header = f.transport == Transport::kTcp ? net::kIpTcpHeaderBytes
                                                      : net::kIpUdpHeaderBytes;
    if (f.packet_bytes <= header) {
      return FlowTag(i, f) + ": packet_bytes must exceed the " +
             std::to_string(header) + "-byte transport header";
    }
    if (f.transport == Transport::kUdp && f.udp_rate <= 0) {
      return FlowTag(i, f) + ": UDP flows need udp_rate > 0";
    }
    if (f.app_limit_bps < 0) {
      return FlowTag(i, f) + ": app_limit_bps must be >= 0";
    }
    if (f.start < 0) {
      return FlowTag(i, f) + ": start must be >= 0";
    }
    switch (f.model) {
      case TrafficModel::kBulk:
        if (f.task_bytes < 0) {
          return FlowTag(i, f) + ": task_bytes must be >= 0 (0 = unbounded)";
        }
        break;
      case TrafficModel::kTaskSequence:
        if (f.task_bytes <= 0 || f.task_count <= 0) {
          return FlowTag(i, f) + ": task sequences need task_bytes > 0 and "
                 "task_count > 0";
        }
        if (f.task_gap < 0) {
          return FlowTag(i, f) + ": task_gap must be >= 0";
        }
        break;
      case TrafficModel::kOnOffWeb:
        if (!FiniteAtLeast(f.onoff.mean_flow_bytes, 1.0) ||
            !FiniteAbove(f.onoff.pareto_alpha, 1.0) ||
            !FiniteAtLeast(f.onoff.mean_think_sec, 0.0)) {
          return FlowTag(i, f) + ": on/off sources need finite mean_flow_bytes >= 1, "
                 "pareto_alpha > 1, mean_think_sec >= 0";
        }
        break;
      case TrafficModel::kTraceReplay:
        if (f.replay.empty()) {
          return FlowTag(i, f) + ": trace replay flows need logged tasks";
        }
        for (size_t t = 0; t < f.replay.size(); ++t) {
          if (f.replay[t].bytes <= 0) {
            return FlowTag(i, f) + ": replay task #" + std::to_string(t) +
                   " must carry bytes";
          }
          if (t > 0 && f.replay[t].at < f.replay[t - 1].at) {
            return FlowTag(i, f) + ": replay tasks must be in trace order";
          }
        }
        break;
    }
  }
  return std::string();
}

void Wlan::Build() {
  TBF_CHECK(!built_);
  if (std::string err = ValidateScenario(config_, station_specs_, flow_specs_);
      !err.empty()) {
    throw ScenarioError("invalid scenario: " + err);
  }
  built_ = true;

  wired_ = std::make_unique<net::WiredLink>(&sim_, kWiredRate, kWiredDelay);
  net::WiredLink* wired = wired_.get();
  cell_ = std::make_unique<CellStack>(
      config_, station_specs_, config_.seed, &sim_, &packet_pool_,
      [wired](net::PacketPtr p) { wired->SendTowardServer(std::move(p)); });
  // A single cell is not a merge-tree child and its sim time is monotone, so older
  // windows can never receive another sample: seal them as soon as a later one opens,
  // keeping open-sketch memory O(1) instead of O(run length / window).
  cell_->stats.SetAutoSeal(true);
  ap::AccessPoint* ap = &cell_->ap;
  wired_->SetTowardAp([ap](net::PacketPtr p) { ap->EnqueueDownlink(std::move(p)); });
  server_ = std::make_unique<net::WiredHost>(&sim_, kServerId, &cell_->demux, wired);

  // The server end shares the cell's Simulator, pool, Rng, stats engine and demux.
  net::WiredHost* server = server_.get();
  const FlowSide server_side{
      &sim_, &packet_pool_, &cell_->rng, &cell_->stats, &cell_->demux,
      [server](net::PacketPtr p) { server->SendPacket(std::move(p)); }};
  for (size_t i = 0; i < flow_specs_.size(); ++i) {
    const FlowSpec& spec = flow_specs_[i];
    flows_.push_back(StartFlow(spec, static_cast<int>(i) + 1,
                               cell_->ClientSide(spec.client), server_side));
  }
}

core::TimeBasedRegulator* Wlan::tbr() { return cell_ == nullptr ? nullptr : cell_->tbr; }

mac::Medium* Wlan::medium() { return cell_ == nullptr ? nullptr : &cell_->medium; }

net::WirelessHost* Wlan::host(NodeId id) {
  return cell_ == nullptr ? nullptr : cell_->host(id);
}

const stats::StatsEngine& Wlan::stats_engine() const {
  static const stats::StatsEngine kUnbuilt;
  return cell_ == nullptr ? kUnbuilt : cell_->stats;
}

void Wlan::BuildNow() {
  if (!built_) {
    Build();
  }
}

Results Wlan::Run() {
  if (!built_) {
    Build();
  }
  sim_.RunUntil(config_.warmup);
  cell_->SnapshotWarmup(flows_);
  sim_.RunUntil(config_.warmup + config_.duration);

  cell_->stats.FlushAll();
  const stats::StatsEngine& engine = cell_->stats;
  Results results;
  cell_->ReadOut(config_.duration, flows_, &results);
  // Every sample of the cell went through its one engine, so the whole-run meters are
  // the cell-wide sketches.
  results.rtt_sketch = engine.meter(stats::kRtt);
  results.ap_queue_delay_sketch = engine.meter(stats::kQueueDelay);
  results.task_latency_sketch = engine.meter(stats::kTaskLatency);
  results.rtt = LatencySummary::FromSketch(results.rtt_sketch);
  results.ap_queue_delay = LatencySummary::FromSketch(results.ap_queue_delay_sketch);
  results.task_latency = LatencySummary::FromSketch(results.task_latency_sketch);
  return results;
}

}  // namespace tbf::scenario

#include "tbf/scenario/wlan.h"

#include <algorithm>

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

FlowSpec& Wlan::AddTraceReplay(const trace::ReplayFlow& flow, Transport transport) {
  return AddFlow(MakeTraceReplaySpec(flow, transport));
}

namespace {

// Appends printf-free formatted context for one flow's diagnostic.
std::string FlowTag(size_t index, const FlowSpec& spec) {
  return "flow #" + std::to_string(index) + " (client " + std::to_string(spec.client) + ")";
}

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
  if (config.wired_rate <= 0) {
    return "config: wired_rate must be > 0";
  }
  if (config.wired_delay < 0) {
    return "config: wired_delay must be >= 0";
  }
  if (config.fifo_limit == 0) {
    return "config: fifo_limit must be > 0";
  }
  if (config.per_queue_limit == 0) {
    return "config: per_queue_limit must be > 0";
  }
  if (config.timings.slot <= 0 || config.timings.sifs < 0) {
    return "config: MAC timings need slot > 0 and sifs >= 0";
  }
  if (config.timings.cw_min < 1 || config.timings.cw_max < config.timings.cw_min) {
    return "config: contention window needs 1 <= cw_min <= cw_max";
  }
  if (config.timings.retry_limit < 1) {
    return "config: retry_limit must be >= 1";
  }
  if (config.qdisc == QdiscKind::kTbr) {
    const core::TbrConfig& tbr = config.tbr;
    if (tbr.fill_period <= 0 || tbr.bucket_depth <= 0 || tbr.initial_tokens < 0) {
      return "config: TBR needs fill_period > 0, bucket_depth > 0, initial_tokens >= 0";
    }
    if (tbr.enable_rate_adjust &&
        (tbr.adjust_period <= 0 || tbr.adjust_threshold <= 0.0 || tbr.min_rate <= 0.0)) {
      return "config: TBR rate adjust needs adjust_period > 0, adjust_threshold > 0, "
             "min_rate > 0";
    }
    if (tbr.contention_contenders < 0) {
      return "config: TBR contention_contenders must be >= 0 (0 = associated count)";
    }
    if (tbr.mode == core::TbrMode::kFastEwma &&
        (tbr.demand_period <= 0 || tbr.demand_alpha <= 0.0 || tbr.demand_alpha > 1.0 ||
         tbr.demand_active_threshold < 0.0)) {
      return "config: TBR fast-EWMA needs demand_period > 0, demand_alpha in (0, 1], "
             "demand_active_threshold >= 0";
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
    if (s.snr_db < 0.0) {
      return tag + ": snr_db must be >= 0 (0 disables the SNR model)";
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
        if (f.onoff.mean_flow_bytes < 1.0 || f.onoff.pareto_alpha <= 1.0 ||
            f.onoff.mean_think_sec < 0.0) {
          return FlowTag(i, f) + ": on/off sources need mean_flow_bytes >= 1, "
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

std::unique_ptr<ap::Qdisc> MakeQdisc(const ScenarioConfig& config, sim::Simulator* sim,
                                     rateadapt::CompositeRateController* rates,
                                     core::TimeBasedRegulator** tbr_out) {
  switch (config.qdisc) {
    case QdiscKind::kFifo:
      return std::make_unique<ap::FifoQdisc>(config.fifo_limit);
    case QdiscKind::kRoundRobin:
      return std::make_unique<ap::RoundRobinQdisc>(config.per_queue_limit);
    case QdiscKind::kDrr:
      return std::make_unique<ap::DrrQdisc>(config.per_queue_limit);
    case QdiscKind::kOarBurst:
      // OAR-style comparison baseline: bursts sized by the client's current rate.
      return std::make_unique<ap::BurstRoundRobinQdisc>(
          [rates](NodeId client) { return phy::GetRateInfo(rates->CurrentRate(client)).bps; },
          Mbps(1), config.per_queue_limit);
    case QdiscKind::kTbr: {
      auto tbr = std::make_unique<core::TimeBasedRegulator>(
          sim, config.timings, config.tbr, config.per_queue_limit);
      *tbr_out = tbr.get();
      return tbr;
    }
  }
  return nullptr;
}

void Wlan::Build() {
  TBF_CHECK(!built_);
  if (std::string err = ValidateScenario(config_, station_specs_, flow_specs_);
      !err.empty()) {
    throw ScenarioError("invalid scenario: " + err);
  }
  built_ = true;

  stats_ = stats::StatsEngine(config_.stats);
  // A single cell is not a merge-tree child and its sim time is monotone, so older
  // windows can never receive another sample: seal them as soon as a later one opens,
  // keeping open-sketch memory O(1) instead of O(run length / window).
  stats_.SetAutoSeal(true);

  rng_ = std::make_unique<sim::Rng>(config_.seed);
  fixed_loss_ = std::make_unique<phy::FixedPerLink>();
  snr_loss_ = std::make_unique<phy::SnrLossModel>();
  loss_ = std::make_unique<phy::DispatchLossModel>(fixed_loss_.get(), snr_loss_.get());
  medium_ = std::make_unique<mac::Medium>(&sim_, config_.timings, loss_.get(), rng_.get());
  ap_rates_ = std::make_unique<rateadapt::CompositeRateController>();
  ap_ = std::make_unique<ap::AccessPoint>(
      &sim_, medium_.get(), MakeQdisc(config_, &sim_, ap_rates_.get(), &tbr_),
      ap_rates_.get());
  wired_ = std::make_unique<net::WiredLink>(&sim_, config_.wired_rate, config_.wired_delay);
  demux_ = std::make_unique<net::Demux>();
  server_ = std::make_unique<net::WiredHost>(&sim_, kServerId, demux_.get(), wired_.get());

  ap_->ConnectWired(wired_.get());
  wired_->SetTowardAp([this](net::PacketPtr p) { ap_->EnqueueDownlink(std::move(p)); });

  for (const StationSpec& spec : station_specs_) {
    if (spec.snr_db != 0.0) {
      snr_loss_->SetClientSnr(spec.id, spec.snr_db);
    } else if (spec.per > 0.0) {
      fixed_loss_->SetClientPer(spec.id, spec.per);
    }
    std::unique_ptr<rateadapt::RateController> client_rates;
    if (spec.arf) {
      rateadapt::ArfConfig arf;
      arf.initial_rate = spec.rate;
      auto ctrl = std::make_unique<rateadapt::ArfController>(arf);
      ctrl->Seed(kApId, spec.rate);
      client_rates = std::move(ctrl);
      ap_rates_->MarkAdaptive(spec.id, spec.rate);
    } else {
      auto ctrl = std::make_unique<rateadapt::FixedRateController>(spec.rate);
      client_rates = std::move(ctrl);
      ap_rates_->PinRate(spec.id, spec.rate);
    }
    hosts_.emplace(spec.id, std::make_unique<net::WirelessHost>(
                                &sim_, medium_.get(), spec.id, std::move(client_rates),
                                demux_.get(), spec.queue_limit));
    ap_->Associate(spec.id);
  }

  // Pin the contention-allowance divisor to the declared cell size so per-packet
  // charges never depend on association order. Identical to the legacy associated-
  // count divisor here, because the loop above associates every station upfront.
  if (tbr_ != nullptr && config_.tbr.contention_contenders == 0) {
    tbr_->SetContentionContenders(static_cast<int>(station_specs_.size()));
  }

  if (tbr_ != nullptr && config_.tbr.client_agent) {
    tbr_->SetClientPauseFn([this](NodeId client, TimeNs until) {
      auto it = hosts_.find(client);
      if (it != hosts_.end()) {
        it->second->PauseUplinkUntil(until);
      }
    });
  }

  int next_flow_id = 1;
  for (const FlowSpec& spec : flow_specs_) {
    auto it = hosts_.find(spec.client);
    TBF_CHECK(it != hosts_.end()) << "flow references unknown station " << spec.client;
    net::WirelessHost* host = it->second.get();

    auto rt = std::make_unique<FlowEngine>();
    rt->spec = spec;
    rt->flow_id = next_flow_id++;
    rt->sim = &sim_;
    rt->rng = rng_.get();
    rt->stats = &stats_;
    stats_.RegisterFlow(rt->flow_id);

    net::FlowAddress addr;
    addr.flow_id = rt->flow_id;
    addr.wlan_client = spec.client;

    const bool uplink = spec.direction == Direction::kUplink;
    addr.sender = uplink ? spec.client : kServerId;
    addr.receiver = uplink ? kServerId : spec.client;

    auto sender_out = [this, host, uplink](net::PacketPtr p) {
      if (uplink) {
        host->SendPacket(std::move(p));
      } else {
        server_->SendPacket(std::move(p));
      }
    };
    auto receiver_out = [this, host, uplink](net::PacketPtr p) {
      if (uplink) {
        server_->SendPacket(std::move(p));  // Acks travel back down through the AP.
      } else {
        host->SendPacket(std::move(p));
      }
    };

    FlowEngine* rt_ptr = rt.get();
    auto deliver = [rt_ptr](int64_t bytes) { rt_ptr->OnDelivered(bytes); };

    const TimeNs flow_start = rt->InitFirstTask(spec.start);
    const int64_t first_task = rt->task_target;

    if (spec.transport == Transport::kTcp) {
      net::TcpConfig tcp;
      tcp.mss = spec.packet_bytes - net::kIpTcpHeaderBytes;
      rt->tcp_sender =
          std::make_unique<net::TcpSender>(&sim_, &packet_pool_, tcp, addr, sender_out);
      rt->tcp_receiver = std::make_unique<net::TcpReceiver>(&sim_, &packet_pool_, tcp,
                                                            addr, receiver_out, deliver);
      if (first_task > 0) {
        rt->tcp_sender->SetTaskBytes(first_task);
        // TCP tasks complete when the final byte is cumulatively acked.
        rt->tcp_sender->SetOnTaskComplete([rt_ptr] { rt_ptr->OnTaskComplete(); });
      }
      if (spec.app_limit_bps > 0) {
        rt->tcp_sender->SetAppLimitBps(spec.app_limit_bps);
      }
      rt->tcp_sender->SetRttSampleFn([rt_ptr](TimeNs sample) {
        rt_ptr->stats->RecordRtt(rt_ptr->flow_id, rt_ptr->sim->Now(), sample);
      });
      demux_->Register(addr.sender, addr.flow_id, rt->tcp_sender.get());
      demux_->Register(addr.receiver, addr.flow_id, rt->tcp_receiver.get());
      rt->actual_start = flow_start;
      rt->tcp_sender->Start(rt->actual_start);
    } else {
      // The source packetizes finite tasks itself (ceiling division with a trimmed
      // final datagram), so exactly first_task payload bytes hit the wire.
      rt->udp_source = std::make_unique<net::UdpSource>(&sim_, &packet_pool_, addr,
                                                        sender_out, spec.udp_rate,
                                                        spec.packet_bytes, first_task,
                                                        rng_.get());
      rt->udp_sink = std::make_unique<net::UdpSink>(deliver);
      demux_->Register(addr.receiver, addr.flow_id, rt->udp_sink.get());
      // Stagger CBR starts so synchronized sources do not phase-lock on shared queues.
      rt->actual_start = flow_start + rt->flow_id * Us(97);
      rt->udp_source->Start(rt->actual_start);
    }
    rt->task_started_at = rt->actual_start;  // The first task transfers from the start.
    flows_.push_back(std::move(rt));
  }

  // AP qdisc residency tap: attribute each transmitted packet's queueing delay to its
  // flow's meter (the engine drops ids it never registered).
  ap_->SetQueueDelayFn([this](int flow_id, NodeId /*client*/, TimeNs delay) {
    stats_.RecordQueueDelay(flow_id, sim_.Now(), delay);
  });
}

net::WirelessHost* Wlan::host(NodeId id) {
  auto it = hosts_.find(id);
  return it == hosts_.end() ? nullptr : it->second.get();
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

  // Warmup, then snapshot counters.
  std::map<NodeId, TimeNs> airtime_at_warmup;
  TimeNs busy_at_warmup = 0;
  sim_.RunUntil(config_.warmup);
  for (const auto& [node, t] : medium_->airtime_meter().by_node()) {
    airtime_at_warmup[node] = t;
  }
  busy_at_warmup = medium_->busy_time();
  for (auto& flow : flows_) {
    flow->window_snapshot = flow->delivered_bytes;
  }

  sim_.RunUntil(config_.warmup + config_.duration);

  Results results;
  const double window_sec = ToSeconds(config_.duration);

  TimeNs total_airtime_delta = 0;
  std::map<NodeId, TimeNs> airtime_delta;
  for (const auto& [node, t] : medium_->airtime_meter().by_node()) {
    const TimeNs before =
        airtime_at_warmup.contains(node) ? airtime_at_warmup[node] : 0;
    airtime_delta[node] = t - before;
    total_airtime_delta += t - before;
  }
  for (const auto& [node, dt] : airtime_delta) {
    results.airtime_share[node] =
        total_airtime_delta > 0
            ? static_cast<double>(dt) / static_cast<double>(total_airtime_delta)
            : 0.0;
  }

  stats_.FlushAll();

  double sum_task_sec = 0.0;
  int64_t table1_tasks = 0;
  for (auto& flow : flows_) {
    AccumulateFlowResult(*flow, flow->delivered_bytes - flow->window_snapshot,
                         window_sec, stats_, stats_, &results, &sum_task_sec,
                         &table1_tasks);
  }
  if (table1_tasks > 0) {
    results.avg_task_time_sec = sum_task_sec / static_cast<double>(table1_tasks);
  }
  // Legacy exact mode: the cell-wide sketches are the per-flow merges above, exactly
  // the pre-engine readout. Streaming modes: replace them with the engine's complete
  // whole-run meters (the per-flow merge covers retained flows only).
  if (stats_.HasCompleteMeters()) {
    results.rtt_sketch = stats_.meter(stats::kRtt);
    results.ap_queue_delay_sketch = stats_.meter(stats::kQueueDelay);
    results.task_latency_sketch = stats_.meter(stats::kTaskLatency);
  }
  results.rtt = LatencySummary::FromSketch(results.rtt_sketch);
  results.ap_queue_delay = LatencySummary::FromSketch(results.ap_queue_delay_sketch);
  results.task_latency = LatencySummary::FromSketch(results.task_latency_sketch);
  results.rtt_series = stats_.series(stats::kRtt);
  results.ap_queue_delay_series = stats_.series(stats::kQueueDelay);
  results.task_latency_series = stats_.series(stats::kTaskLatency);
  results.goodput_series = stats_.bytes_series();

  results.utilization =
      static_cast<double>(medium_->busy_time() - busy_at_warmup) / config_.duration;
  results.mac_collisions = medium_->collisions();
  results.mac_exchanges = medium_->exchanges();
  results.ap_drops = ap_->downlink_drops();
  return results;
}

}  // namespace tbf::scenario

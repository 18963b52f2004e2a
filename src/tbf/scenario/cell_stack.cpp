#include "tbf/scenario/cell_stack.h"

#include <algorithm>

#include "tbf/util/logging.h"

namespace tbf::scenario {
namespace {

// The AP transmit qdisc the config asks for, with the AP buffers of ap/qdisc.h. `rates`
// feeds the burst-sizing baseline (kOarBurst); when the config selects TBR, the regulator
// estimates occupancy from the medium's `timings` and `stations` contenders, and
// `*tbr_out` receives it.
std::unique_ptr<ap::Qdisc> MakeQdisc(const ScenarioConfig& config, size_t stations,
                                     sim::Simulator* sim, const phy::MacTimings& timings,
                                     rateadapt::CompositeRateController* rates,
                                     core::TimeBasedRegulator** tbr_out) {
  switch (config.qdisc) {
    case QdiscKind::kFifo:
      return std::make_unique<ap::FifoQdisc>();
    case QdiscKind::kRoundRobin:
      return std::make_unique<ap::RoundRobinQdisc>();
    case QdiscKind::kDrr:
      return std::make_unique<ap::DrrQdisc>();
    case QdiscKind::kOarBurst:
      // OAR-style comparison baseline: bursts sized by the client's current rate.
      return std::make_unique<ap::BurstRoundRobinQdisc>(
          [rates](NodeId client) { return phy::GetRateInfo(rates->CurrentRate(client)).bps; },
          Mbps(1));
    case QdiscKind::kTbr: {
      auto tbr =
          std::make_unique<core::TimeBasedRegulator>(sim, timings, config.tbr, stations);
      *tbr_out = tbr.get();
      return tbr;
    }
  }
  return nullptr;
}

// Folds one flow's measurement-window readout into `results`: the FlowResult,
// per-client goodput, and the Table 1 task aggregates accumulated via `sum_task_sec`/
// `table1_tasks` (the caller divides at the end). Task and RTT meters come from the
// stats engine of the flow's engine side; `queue_meters` is the cell's, where the AP
// qdisc tap always records - for downlink campus flows the two differ.
void AccumulateFlowResult(const FlowEngine& flow, double window_sec,
                          const stats::StatsEngine& queue_meters, Results* results,
                          double* sum_task_sec, int64_t* table1_tasks) {
  static const stats::FlowStats kNoStats = stats::FlowStats();
  const stats::FlowStats* fs = flow.stats->flow(flow.flow_id);
  const stats::FlowStats* qs = queue_meters.flow(flow.flow_id);
  if (fs == nullptr) {
    fs = &kNoStats;
  }
  if (qs == nullptr) {
    qs = &kNoStats;
  }

  FlowResult fr;
  fr.flow_id = flow.flow_id;
  fr.client = flow.spec.client;
  fr.tcp = flow.spec.transport == Transport::kTcp;
  fr.bytes_delivered = flow.delivered_bytes - flow.window_snapshot;
  fr.goodput_bps = static_cast<double>(fr.bytes_delivered) * 8.0 / window_sec;
  fr.exact = fs->retained && qs->retained;
  // Task completions are reported relative to the flow's actual start (spec start +
  // CBR stagger), so they do not shift with the stagger or the warmup boundary.
  // The Table 1 aggregates use cumulative transfer durations - idle time (task_gap,
  // think) excluded, matching the fluid model's gap-free schedule; they coincide with
  // the completions for back-to-back sequences. On/off and trace-replay flows count
  // toward tasks_completed but stay out of the aggregates entirely: their duration
  // timelines embed think times / the capture's arrival structure (and, for replay,
  // backlog wait), not a gap-free task schedule. Under sampled retention the task
  // vectors (hence the Table 1 walk) exist only for retained flows; tasks_completed
  // still counts every flow via the counted tier.
  const bool table1_flow = flow.spec.model == TrafficModel::kBulk ||
                           flow.spec.model == TrafficModel::kTaskSequence;
  fr.task_completions.reserve(fs->task_completions.size());
  TimeNs transfer_elapsed = 0;
  for (size_t i = 0; i < fs->task_completions.size(); ++i) {
    fr.task_completions.push_back(fs->task_completions[i] - flow.actual_start);
    transfer_elapsed += fs->task_durations[i];
    if (table1_flow) {
      ++*table1_tasks;
      *sum_task_sec += ToSeconds(transfer_elapsed);
      results->final_task_time_sec =
          std::max(results->final_task_time_sec, ToSeconds(transfer_elapsed));
    }
  }
  results->tasks_completed += fs->tasks;
  fr.task_durations = fs->task_durations;
  if (fs->last_completion >= 0) {
    fr.completion_time = fs->last_completion - flow.actual_start;
  }
  if (flow.tcp_sender != nullptr) {
    fr.retransmits = flow.tcp_sender->retransmits();
    fr.timeouts = flow.tcp_sender->timeouts();
  }
  // Counted-tier-only flows report their sample counts with zero percentiles
  // (fr.exact == false tells the reader); the run-wide meters still carry their
  // samples.
  if (fs->retained) {
    fr.rtt = LatencySummary::FromSketch(fs->rtt_sketch);
    fr.task_latency = LatencySummary::FromSketch(fs->task_latency_sketch);
  } else {
    fr.rtt.count = fs->rtt_count;
    fr.task_latency.count = fs->tasks;
  }
  if (qs->retained) {
    fr.queue_delay = LatencySummary::FromSketch(qs->queue_delay_sketch);
  } else {
    fr.queue_delay.count = qs->queue_count;
  }
  results->goodput_bps[flow.spec.client] += fr.goodput_bps;
  results->aggregate_bps += fr.goodput_bps;
  results->flows.push_back(fr);
}

}  // namespace

CellStack::CellStack(const ScenarioConfig& config, const std::vector<StationSpec>& stations,
                     uint64_t seed, sim::Simulator* sim, net::PacketPool* pool,
                     ap::AccessPoint::ForwardFn uplink)
    : sim(sim),
      pool(pool),
      rng(seed),
      stats(config.stats),
      loss(&fixed_loss, &snr_loss),
      medium(sim, phy::MixedModeTimings(), &loss, &rng),
      ap(sim, &medium,
         MakeQdisc(config, stations.size(), sim, medium.timings(), &ap_rates, &tbr),
         &ap_rates) {
  ap.SetUplinkForward(std::move(uplink));
  for (const StationSpec& spec : stations) {
    if (spec.snr_db != 0.0) {
      snr_loss.SetClientSnr(spec.id, spec.snr_db);
    } else if (spec.per > 0.0) {
      fixed_loss.SetClientPer(spec.id, spec.per);
    }
    std::unique_ptr<rateadapt::RateController> client_rates;
    if (spec.arf) {
      rateadapt::ArfConfig arf;
      arf.initial_rate = spec.rate;
      auto ctrl = std::make_unique<rateadapt::ArfController>(arf);
      ctrl->Seed(kApId, spec.rate);
      client_rates = std::move(ctrl);
      ap_rates.MarkAdaptive(spec.id, spec.rate);
    } else {
      client_rates = std::make_unique<rateadapt::FixedRateController>(spec.rate);
      ap_rates.PinRate(spec.id, spec.rate);
    }
    hosts.emplace(spec.id, std::make_unique<net::WirelessHost>(
                               sim, &medium, spec.id, std::move(client_rates), &demux,
                               spec.queue_limit));
    ap.Associate(spec.id);
  }

  if (tbr != nullptr && config.tbr.client_agent) {
    tbr->SetClientPauseFn([this](NodeId client, TimeNs until) {
      if (net::WirelessHost* h = host(client); h != nullptr) {
        h->PauseUplinkUntil(until);
      }
    });
  }
  // AP qdisc residency tap: each transmitted packet's queueing delay goes to its flow's
  // meter in this cell's engine (which drops ids it never registered).
  ap.SetQueueDelayFn([this](int flow_id, NodeId /*client*/, TimeNs delay) {
    stats.RecordQueueDelay(flow_id, this->sim->Now(), delay);
  });
}

FlowSide CellStack::ClientSide(NodeId client) {
  net::WirelessHost* h = host(client);
  TBF_CHECK(h != nullptr) << "flow references unknown station " << client;
  return FlowSide{sim, pool, &rng, &stats, &demux,
                  [h](net::PacketPtr p) { h->SendPacket(std::move(p)); }};
}

net::WirelessHost* CellStack::host(NodeId id) const {
  auto it = hosts.find(id);
  return it == hosts.end() ? nullptr : it->second.get();
}

void CellStack::SnapshotWarmup(const FlowList& flows) {
  for (const auto& [node, t] : medium.airtime_meter().by_node()) {
    airtime_at_warmup_[node] = t;
  }
  busy_at_warmup_ = medium.busy_time();
  for (const std::unique_ptr<FlowEngine>& flow : flows) {
    flow->window_snapshot = flow->delivered_bytes;
  }
}

void CellStack::ReadOut(TimeNs duration, const FlowList& flows, Results* out) const {
  TimeNs total_airtime_delta = 0;
  std::map<NodeId, TimeNs> airtime_delta;
  for (const auto& [node, t] : medium.airtime_meter().by_node()) {
    auto it = airtime_at_warmup_.find(node);
    const TimeNs delta = t - (it == airtime_at_warmup_.end() ? 0 : it->second);
    airtime_delta[node] = delta;
    total_airtime_delta += delta;
  }
  for (const auto& [node, dt] : airtime_delta) {
    out->airtime_share[node] =
        total_airtime_delta > 0
            ? static_cast<double>(dt) / static_cast<double>(total_airtime_delta)
            : 0.0;
  }

  const double window_sec = ToSeconds(duration);
  double sum_task_sec = 0.0;
  int64_t table1_tasks = 0;
  for (const std::unique_ptr<FlowEngine>& flow : flows) {
    AccumulateFlowResult(*flow, window_sec, stats, out, &sum_task_sec, &table1_tasks);
  }
  if (table1_tasks > 0) {
    out->avg_task_time_sec = sum_task_sec / static_cast<double>(table1_tasks);
  }
  out->rtt_series = stats.series(stats::kRtt);
  out->ap_queue_delay_series = stats.series(stats::kQueueDelay);
  out->task_latency_series = stats.series(stats::kTaskLatency);
  out->goodput_series = stats.bytes_series();

  out->utilization = static_cast<double>(medium.busy_time() - busy_at_warmup_) / duration;
  out->mac_collisions = medium.collisions();
  out->mac_exchanges = medium.exchanges();
  out->ap_drops = ap.downlink_drops();
}

}  // namespace tbf::scenario

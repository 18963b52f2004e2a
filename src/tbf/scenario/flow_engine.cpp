#include "tbf/scenario/flow_engine.h"

#include <algorithm>

namespace tbf::scenario {

TimeNs FlowEngine::InitFirstTask(TimeNs flow_start) {
  // Size of the first transfer: the spec's task size, an on/off draw, or the trace's
  // first logged transfer. 0 keeps the flow unbounded (kBulk fluid transfer). Trace
  // replays anchor the start at the first logged arrival so later transfers keep their
  // logged offsets from it.
  int64_t first_task = 0;
  switch (spec.model) {
    case TrafficModel::kBulk:
      first_task = spec.task_bytes;
      break;
    case TrafficModel::kTaskSequence:
      first_task = spec.task_bytes;  // ValidateScenario pinned size and count > 0.
      break;
    case TrafficModel::kOnOffWeb:
      first_task = spec.onoff.DrawFlowBytes(*rng);
      break;
    case TrafficModel::kTraceReplay:
      first_task = spec.replay.front().bytes;
      flow_start += spec.replay.front().at;
      break;
  }
  task_target = first_task;
  tasks_started = first_task > 0 ? 1 : 0;
  return flow_start;
}

void FlowEngine::OnDelivered(int64_t bytes) {
  delivered_bytes += bytes;
  stats->RecordBytes(flow_id, sim->Now(), bytes);
  // UDP tasks have no acks; they complete when the sink has delivered the task's
  // payload. (A datagram lost beyond the MAC's retries stalls the task - finite UDP
  // tasks are meant for configurations below the loss cliff.)
  if (HasTasks() && delivered_bytes >= task_target) {
    OnTaskComplete();
  }
}

void FlowEngine::OnTaskComplete() {
  stats->RecordTaskCompletion(flow_id, sim->Now(), sim->Now() - task_started_at);
  switch (spec.model) {
    case TrafficModel::kBulk:
      break;  // Single finite task; nothing follows.
    case TrafficModel::kTaskSequence:
      if (tasks_started < spec.task_count) {
        QueueNextTask(spec.task_bytes, spec.task_gap);
      }
      break;
    case TrafficModel::kOnOffWeb:
      // Think, then the next transfer. Both draws happen now (event order is
      // deterministic, so the rng stream is too).
      QueueNextTask(spec.onoff.DrawFlowBytes(*rng), spec.onoff.DrawThinkNs(*rng));
      break;
    case TrafficModel::kTraceReplay:
      // Launch the next logged transfer at its logged offset from the flow's start; if
      // the cell ran slower than the capture and that moment has passed, launch now
      // (the user is backlogged, not skipped - every logged byte still gets delivered,
      // and the duration anchor stays at the logged due time so the wait is measured).
      if (replay_next < spec.replay.size()) {
        const trace::ReplayTask& next = spec.replay[replay_next++];
        const TimeNs due = actual_start + (next.at - spec.replay.front().at);
        next_task_due = due;
        QueueNextTask(next.bytes, std::max<TimeNs>(0, due - sim->Now()));
      }
      break;
  }
}

void FlowEngine::QueueNextTask(int64_t bytes, TimeNs delay) {
  ++tasks_started;
  auto launch = [this, bytes] {
    // Replay tasks anchor at their logged due time (== now unless the launch was held
    // back by the previous task, i.e. the user was backlogged); everything else starts
    // its clock when the transfer actually begins.
    task_started_at = next_task_due >= 0 ? next_task_due : sim->Now();
    next_task_due = -1;
    task_target += bytes;
    if (tcp_sender != nullptr) {
      tcp_sender->AddTask(bytes);
    } else {
      udp_source->AddTask(bytes);
    }
  };
  if (delay > 0) {
    sim->Schedule(delay, launch);
  } else {
    launch();
  }
}

std::unique_ptr<FlowEngine> StartFlow(const FlowSpec& spec, int flow_id,
                                      const FlowSide& client, const FlowSide& server) {
  const bool uplink = spec.direction == Direction::kUplink;
  const bool tcp = spec.transport == Transport::kTcp;
  const FlowSide& send = uplink ? client : server;
  const FlowSide& recv = uplink ? server : client;
  // The engine's side: the TCP sender's (a task completes on its final cumulative ack)
  // or the UDP sink's (delivery is what completes a task).
  const FlowSide& home = tcp ? send : recv;

  auto rt = std::make_unique<FlowEngine>();
  FlowEngine* engine = rt.get();
  rt->spec = spec;
  rt->flow_id = flow_id;
  rt->sim = home.sim;
  rt->rng = home.rng;
  rt->stats = home.stats;
  // A flow is registered wherever a side records for it: the engine's (task + RTT
  // meters), the client's cell (the AP queue-delay tap always fires there) and the
  // receiver's (delivered bytes). Registration is idempotent, so overlaps are fine.
  home.stats->RegisterFlow(flow_id);
  client.stats->RegisterFlow(flow_id);
  recv.stats->RegisterFlow(flow_id);

  net::FlowAddress addr;
  addr.flow_id = flow_id;
  addr.wlan_client = spec.client;
  addr.sender = uplink ? spec.client : kServerId;
  addr.receiver = uplink ? kServerId : spec.client;

  const TimeNs flow_start = rt->InitFirstTask(spec.start);
  const int64_t first_task = rt->task_target;

  if (tcp) {
    net::TcpConfig config;
    config.mss = spec.packet_bytes - net::kIpTcpHeaderBytes;
    // The receiver counts delivered bytes on its own side, which in a campus is the
    // shard opposite the engine.
    auto deliver = [engine, stats = recv.stats, sim = recv.sim, flow_id](int64_t bytes) {
      engine->delivered_bytes += bytes;
      stats->RecordBytes(flow_id, sim->Now(), bytes);
    };
    rt->tcp_sender =
        std::make_unique<net::TcpSender>(send.sim, send.pool, config, addr, send.exit);
    rt->tcp_receiver = std::make_unique<net::TcpReceiver>(recv.sim, recv.pool, config,
                                                          addr, recv.exit, deliver);
    if (first_task > 0) {
      rt->tcp_sender->SetTaskBytes(first_task);
      // TCP tasks complete when the final byte is cumulatively acked.
      rt->tcp_sender->SetOnTaskComplete([engine] { engine->OnTaskComplete(); });
    }
    if (spec.app_limit_bps > 0) {
      rt->tcp_sender->SetAppLimitBps(spec.app_limit_bps);
    }
    rt->tcp_sender->SetRttSampleFn([engine](TimeNs sample) {
      engine->stats->RecordRtt(engine->flow_id, engine->sim->Now(), sample);
    });
    send.demux->Register(addr.sender, flow_id, rt->tcp_sender.get());
    recv.demux->Register(addr.receiver, flow_id, rt->tcp_receiver.get());
    rt->actual_start = flow_start;
    rt->tcp_sender->Start(rt->actual_start);
  } else {
    // The source packetizes finite tasks itself (ceiling division with a trimmed final
    // datagram), so exactly first_task payload bytes hit the wire. A later task is
    // queued from the sink's side, so a campus, where the source runs in the other
    // shard, keeps UDP flows to one bulk task (ValidateCampus).
    rt->udp_source = std::make_unique<net::UdpSource>(send.sim, send.pool, addr, send.exit,
                                                      spec.udp_rate, spec.packet_bytes,
                                                      first_task, send.rng);
    rt->udp_sink = std::make_unique<net::UdpSink>(
        [engine](int64_t bytes) { engine->OnDelivered(bytes); });
    recv.demux->Register(addr.receiver, flow_id, rt->udp_sink.get());
    // Stagger CBR starts so synchronized sources do not phase-lock on shared queues;
    // flow ids are campus-global, so a campus cell staggers like an equivalent Wlan.
    rt->actual_start = flow_start + flow_id * Us(97);
    rt->udp_source->Start(rt->actual_start);
  }
  rt->task_started_at = rt->actual_start;  // The first task transfers from the start.
  return rt;
}

}  // namespace tbf::scenario

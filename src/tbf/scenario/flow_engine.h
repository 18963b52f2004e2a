// The per-flow runtime shared by every scenario builder.
//
// A FlowEngine is one constructed flow: the transport endpoints it owns and the
// finite-task bookkeeping that restarts transfers (task sequences, on/off draws, trace
// replays). Latency samples and delivered bytes are recorded through a shard's
// stats::StatsEngine (see docs/metrology.md), never stored here - the engine struct
// stays O(1) per flow. StartFlow builds every flow, for scenario::Wlan and for
// shard::CampusSim alike, between the flow's two FlowSides: the client end in its cell
// and the server end (a wired host in the same Simulator, or the campus core shard).
// The engine's own state lives on exactly one side - the one whose Simulator fires its
// callbacks - so none of it needs synchronization: the TCP sender's side (task
// completion is the final cumulative ack) or the UDP sink's side (delivery completes a
// task).
#ifndef TBF_SCENARIO_FLOW_ENGINE_H_
#define TBF_SCENARIO_FLOW_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tbf/net/demux.h"
#include "tbf/net/tcp.h"
#include "tbf/net/udp.h"
#include "tbf/scenario/wlan.h"
#include "tbf/sim/random.h"
#include "tbf/sim/simulator.h"
#include "tbf/stats/engine.h"

namespace tbf::scenario {

struct FlowEngine {
  FlowSpec spec;
  int flow_id = -1;
  // When the first transfer actually begins: spec.start plus the CBR stagger for UDP
  // flows. Task completions are reported relative to this, which makes
  // AvgTaskTime/FinalTaskTime independent of the stagger and of where the warmup ends.
  TimeNs actual_start = 0;

  // The simulator, rng and stats engine of the side this engine lives on (single-cell
  // scenarios have exactly one of each). Set by StartFlow before any task runs.
  sim::Simulator* sim = nullptr;
  sim::Rng* rng = nullptr;
  stats::StatsEngine* stats = nullptr;

  // Both endpoints of the flow (one pair is null, by transport). Each runs in its own
  // side's Simulator and draws from that side's pool: in a sharded campus the server
  // end runs in the core shard, so the core must outlive every flow.
  std::unique_ptr<net::TcpSender> tcp_sender;
  std::unique_ptr<net::TcpReceiver> tcp_receiver;
  std::unique_ptr<net::UdpSource> udp_source;
  std::unique_ptr<net::UdpSink> udp_sink;

  // Finite-task bookkeeping. `task_target` is the cumulative payload target of the
  // task in flight (grown per task so restarts share one sequence space); UDP tasks
  // complete when the sink has delivered it, TCP tasks when the sender reports Done.
  int64_t task_target = 0;
  int tasks_started = 0;
  TimeNs task_started_at = 0;            // When the task in flight began transferring.
  // kTraceReplay: the next task's logged due time. Durations anchor here instead of at
  // the actual launch, so a backlogged replay charges the user's waiting time to the
  // transfer (sojourn from logged arrival) instead of silently excluding it. -1 = unset.
  TimeNs next_task_due = -1;
  size_t replay_next = 1;                // kTraceReplay: index of the next logged task.

  // Total payload delivered (from flow start), written only by the receiving end. For
  // a campus TCP flow that end runs in the other shard from the engine, so the counter
  // stays last: more than a cache line past flow_id, sim and stats, which the engine
  // side reads for every RTT sample. (Over-aligning it would make every FlowEngine an
  // aligned allocation, which slows a 256-station cell's build by about 0.1 ms.) The
  // coordinator reads it, and writes the warmup snapshot, only at barriers.
  int64_t delivered_bytes = 0;
  int64_t window_snapshot = 0;  // Delivered bytes at warmup.

  bool HasTasks() const { return task_target > 0; }

  // Sizes the first transfer (drawing from `rng` for on/off flows) and returns the
  // flow's start instant - `flow_start` shifted to the first logged arrival for trace
  // replays. Sets task_target (the first task's bytes; 0 keeps the flow unbounded)
  // and tasks_started.
  TimeNs InitFirstTask(TimeNs flow_start);

  // The UDP sink's delivery accounting (the engine sits with the sink); finite UDP
  // tasks complete here, having no acks.
  void OnDelivered(int64_t bytes);

  // Task chaining: records the task that just finished and, for sequence, on/off and
  // replay flows, queues the next transfer (after the think/gap time).
  void OnTaskComplete();
  void QueueNextTask(int64_t bytes, TimeNs delay);
};

// One end of a flow: the Simulator it runs in, the pool and Rng it draws from, the
// stats engine it records into, the demux that hands it packets, and where the packets
// it sends leave (a station's uplink queue, a wired host or a backbone link).
struct FlowSide {
  sim::Simulator* sim = nullptr;
  net::PacketPool* pool = nullptr;
  sim::Rng* rng = nullptr;
  stats::StatsEngine* stats = nullptr;
  net::Demux* demux = nullptr;
  std::function<void(net::PacketPtr)> exit;
};

using FlowList = std::vector<std::unique_ptr<FlowEngine>>;

// Builds flow `flow_id` from `spec` between its client and server ends and schedules
// its start. The sender and receiver run on their sides (by direction); the engine
// sits with the TCP sender or the UDP sink. A UDP source draws its jitter from its
// sending side's Rng, on/off sizes and think times come from the engine side's. The
// flow is registered with the engine's, the client's and the receiver's stats engines.
std::unique_ptr<FlowEngine> StartFlow(const FlowSpec& spec, int flow_id,
                                      const FlowSide& client, const FlowSide& server);

}  // namespace tbf::scenario

#endif  // TBF_SCENARIO_FLOW_ENGINE_H_

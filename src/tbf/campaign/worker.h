// Campaign worker: runs jobs served by a Coordinator, heartbeating while it works.
//
// A worker is a deliberately simple loop - connect, hello, request, run, result,
// repeat - because every robustness decision lives on the coordinator side. The
// worker's one liveness duty is the heartbeat: the scenario runs on the session
// thread while one heartbeat thread, alive for the whole RunWorker call, keeps
// sending {"type":"heartbeat"} at a fixed cadence, so a long job is distinguishable
// from a wedged worker.
//
// A FaultPlan turns the worker into its own adversary for testing: on a faulted
// execution it drops the connection mid-job (crash), goes silent without a result
// (hang), or ships a payload with flipped/missing bytes (corrupt/truncate) that the
// coordinator must reject. Every fault but a hang ends with the worker dropping the
// connection itself; it then reconnects at once as a fresh peer, which is exactly how
// an externally restarted worker process looks. A hang ends when the coordinator's
// heartbeat deadline drops the worker, which then reconnects after the usual delay.
#ifndef TBF_CAMPAIGN_WORKER_H_
#define TBF_CAMPAIGN_WORKER_H_

#include <cstdint>
#include <string>

#include "tbf/campaign/fault_injector.h"

namespace tbf::campaign {

struct WorkerConfig {
  std::string socket_path;
  std::string name = "worker";
  int heartbeat_interval_ms = 500;
  // Reconnect policy when the coordinator is unreachable or drops us (not after a
  // fault this worker injected itself: it then reconnects at once).
  int reconnect_delay_ms = 100;
  int max_reconnects = 100;      // After this many consecutive failures, give up.
  FaultPlan faults;              // All-zero probabilities = an honest worker.
};

struct WorkerStats {
  int64_t jobs_run = 0;          // Scenarios actually executed to completion.
  int64_t results_sent = 0;
  int64_t faults_injected = 0;
  int64_t reconnects = 0;
};

// Runs the worker loop until the coordinator sends {"type":"shutdown"} or the
// reconnect budget is exhausted (both are normal exits - the coordinator may
// simply be gone because the campaign finished). Returns the stats.
WorkerStats RunWorker(const WorkerConfig& config);

}  // namespace tbf::campaign

#endif  // TBF_CAMPAIGN_WORKER_H_

// Seeded, deterministic fault injection for the campaign service.
//
// Every failure path the coordinator claims to survive is exercised on demand rather
// than discovered in production: a FaultInjector embedded in a worker decides, per job
// execution, whether that worker will
//
//   kCrash    - drop the connection mid-job without a result (a SIGKILL'd or
//               OOM-killed worker, as seen from the coordinator),
//   kHang     - stop heartbeating and never produce the result (a wedged worker;
//               the coordinator's heartbeat deadline must fire),
//   kCorrupt  - send the result with flipped payload bytes under the original CRC
//               (a lying worker; CRC validation must reject and re-queue),
//   kTruncate - send fewer payload bytes than the advertised length (a torn write;
//               length validation must reject and re-queue).
//
// Decisions are a pure function of (seed, job id, how many times this worker has
// executed that job), so a given worker's fault schedule is reproducible regardless
// of dispatch interleaving. By default a (worker, job) pair faults at most once
// (`repeat = false`): re-execution after a fault is clean, so campaigns provably
// terminate while still faulting the configured fraction of first executions.
#ifndef TBF_CAMPAIGN_FAULT_INJECTOR_H_
#define TBF_CAMPAIGN_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>

namespace tbf::campaign {

struct FaultPlan {
  uint64_t seed = 0;
  // Per-execution probabilities, applied in this precedence order; their sum must be
  // <= 1. All zero = no faults.
  double crash = 0.0;
  double hang = 0.0;
  double corrupt = 0.0;
  double truncate = 0.0;
  // When false (default), only the first execution of a job by this worker can fault.
  bool repeat = false;
  // Total fault budget for this worker; < 0 = unlimited.
  int max_faults = -1;
};

class FaultInjector {
 public:
  enum class Fault { kNone, kCrash, kHang, kCorrupt, kTruncate };

  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  // Decides the fate of this worker's next execution of `job_id` and advances the
  // per-job execution counter.
  Fault Decide(int64_t job_id);

  // Deterministically flips three payload bytes (positions and masks keyed on `key`).
  // The payload must be non-empty.
  static void Corrupt(std::string* payload, uint64_t key);

  // Deterministically drops the payload's tail (at least one byte, keyed on `key`).
  static void Truncate(std::string* payload, uint64_t key);

  int faults_injected() const { return injected_; }

 private:
  FaultPlan plan_;
  std::map<int64_t, int> executions_;
  int injected_ = 0;
};

}  // namespace tbf::campaign

#endif  // TBF_CAMPAIGN_FAULT_INJECTOR_H_

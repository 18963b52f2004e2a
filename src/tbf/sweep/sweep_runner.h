// Multi-core scenario sweep runner.
//
// The paper's results are a grid of independent WLAN scenarios (rate pairs x direction x
// qdisc x seed). Each scenario::Wlan owns its entire world - Simulator, Rng, medium,
// hosts - so scenarios are embarrassingly parallel as long as nothing routes through
// mutable shared state. The shared layers were audited for this: util/logging uses an
// atomic level and a mutexed sink, phy/ and model/ expose only immutable tables
// (function-local statics with thread-safe initialization), and stats meters/tables are
// per-instance. See tests/sweep_test.cpp (and the TSan CTest target) for the enforcement.
//
// SweepRunner is a fixed thread pool (no work stealing): jobs are claimed from a single
// FIFO queue, each runs to completion on one worker, and results are written into a
// slot indexed by submission order. Because every job is hermetic, the returned Results
// are bit-identical to a serial run regardless of pool size or claim interleaving -
// which keeps the table output of every bench deterministic.
#ifndef TBF_SWEEP_SWEEP_RUNNER_H_
#define TBF_SWEEP_SWEEP_RUNNER_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tbf/scenario/results.h"
#include "tbf/scenario/wlan.h"

namespace tbf::sweep {

// Thrown by Map/RunScenarios when a job throws on a worker thread. Carries the failing
// job's submission index so the caller can name it (a campaign coordinator re-queues or
// reports that job instead of losing the whole process to std::terminate). When several
// jobs fail in one batch, the lowest submission index wins deterministically.
class SweepError : public std::runtime_error {
 public:
  SweepError(size_t job_index, const std::string& what)
      : std::runtime_error("sweep job #" + std::to_string(job_index) + " failed: " + what),
        job_index_(job_index) {}

  size_t job_index() const { return job_index_; }

 private:
  size_t job_index_;
};

// Declarative scenario description: everything scenario::Wlan needs, by value, so the
// job can be built and run on any worker thread.
struct ScenarioJob {
  scenario::ScenarioConfig config;
  std::vector<scenario::StationSpec> stations;
  std::vector<scenario::FlowSpec> flows;
  // Optional hook run after BuildNow() and before Run() - for knobs that need live
  // components (TBR weights, medium observers). Must only touch this job's Wlan.
  std::function<void(scenario::Wlan&)> configure;
};

// Builds and runs one declarative job to completion (callable from any thread).
scenario::Results RunScenarioJob(const ScenarioJob& job);

class SweepRunner {
 public:
  // threads <= 0 selects DefaultThreadCount().
  explicit SweepRunner(int threads = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // TBF_SWEEP_THREADS when it reads as a positive count (capped at 64; zero, negative
  // and non-numeric values are ignored), else hardware concurrency.
  static int DefaultThreadCount();

  // True on a SweepRunner worker thread. Nested parallel subsystems (the sharded
  // campus's shard pool) consult this to default to serial execution inside a sweep
  // worker, so the two thread pools do not multiply against each other.
  static bool InSweepWorker();

  // Runs every job on the pool and returns results in submission order. Blocks until
  // all jobs finish. T must be default-constructible and move-assignable. Not
  // reentrant: do not call Map from inside a job. A throwing job never takes down the
  // worker thread: every job runs to completion (the batch is not cancelled), then the
  // lowest-index failure is rethrown as SweepError naming that job.
  template <typename T>
  std::vector<T> Map(std::vector<std::function<T()>> jobs) {
    std::vector<T> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      tasks.push_back([&results, &errors, &jobs, i] {
        try {
          results[i] = jobs[i]();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    RunTasks(std::move(tasks));
    RethrowFirstError(errors);
    return results;
  }

  // Declarative form: one Wlan per job, each on its own worker with its own
  // Simulator/Rng, results in submission order.
  std::vector<scenario::Results> RunScenarios(const std::vector<ScenarioJob>& jobs);

 private:
  void RunTasks(std::vector<std::function<void()>>&& tasks);
  void WorkerLoop();
  // Throws SweepError for the lowest-index non-null entry, if any.
  static void RethrowFirstError(const std::vector<std::exception_ptr>& errors);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tbf::sweep

#endif  // TBF_SWEEP_SWEEP_RUNNER_H_

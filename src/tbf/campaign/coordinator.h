// Campaign coordinator: fault-tolerant distribution of a scenario manifest.
//
// The coordinator owns a manifest of deterministic, idempotent jobs and drives them
// all to completion across anonymous workers (campaign/worker.h) connected over a
// local socket - or, when no workers show up, by running jobs itself (graceful
// degradation to single-process mode). Robustness invariants, in the order they
// matter:
//
//  * A result is merged only after validation: hex decodes, length matches, CRC32
//    matches, the Results blob decodes against the schema, AND it answers the job
//    this connection was actually dispatched (anything else is discarded, the job
//    re-queued, and the connection dropped as faulty). A truncated or corrupt
//    payload can delay a campaign; it can never poison the output.
//  * Every dispatched job has two clocks running: a heartbeat deadline (worker must
//    keep proving liveness while the scenario runs) and an absolute per-job deadline.
//    Either expiring kills the connection and re-queues the job with exponential
//    backoff (base * 2^(attempt-1), capped) and a bounded attempt count - a job that
//    keeps failing takes the campaign down loudly (CampaignError) instead of
//    spinning forever.
//  * Completions go through a write-ahead log: the record (job id + length + CRC +
//    payload) is appended and flushed *before* the job is counted done, so a
//    coordinator killed at any instant resumes by re-running only jobs with no valid
//    record. A torn final record fails validation and is simply re-run - the log is
//    append-only and records are self-checking. Because jobs are deterministic, the
//    resumed campaign's archive is byte-identical to an uninterrupted one.
//  * Job identity is the manifest index, and the archive is assembled in manifest
//    order from the validated blobs - so the merged output of a fault-ridden
//    distributed run is byte-identical to a fault-free serial run (the repo's
//    standing determinism bar; tests/campaign_test.cpp and the CI smoke job hold it).
#ifndef TBF_CAMPAIGN_COORDINATOR_H_
#define TBF_CAMPAIGN_COORDINATOR_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "tbf/campaign/codec.h"  // CampaignError.
#include "tbf/campaign/manifest.h"
#include "tbf/campaign/wire.h"
#include "tbf/scenario/results.h"

namespace tbf::campaign {

struct CoordinatorConfig {
  // Unix-socket path workers connect to. Empty = no socket: pure local mode.
  std::string socket_path;
  // Write-ahead completion log. Empty = no log (campaign is not resumable).
  std::string wal_path;

  // Re-dispatch policy.
  int max_attempts = 8;           // Dispatches per job before CampaignError.
  int job_timeout_ms = 60000;     // Absolute deadline per dispatch.
  int heartbeat_timeout_ms = 5000;
  int backoff_base_ms = 50;       // Exponential: base * 2^(attempt-1), capped below.
  int backoff_max_ms = 2000;

  // Graceful degradation: when no worker is connected for this long, the
  // coordinator starts running ready jobs itself (it keeps serving the socket, so
  // late workers still join). < 0 disables local execution entirely.
  int local_fallback_after_ms = 500;

  // Test hook ("kill -9 the coordinator after N completions"): when >= 0, Run()
  // returns false as soon as this many jobs have completed in this run, without
  // shutdown courtesies - exactly what a killed process looks like to workers.
  int halt_after_jobs = -1;
};

struct CoordinatorStats {
  int64_t completed = 0;           // Jobs completed this run (local + remote).
  int64_t resumed = 0;             // Jobs recovered from the completion log.
  int64_t dispatched = 0;          // Job messages sent to workers.
  int64_t redispatched = 0;        // Re-queues after any failure.
  int64_t rejected_payloads = 0;   // Results discarded by validation.
  int64_t worker_disconnects = 0;  // Connections that died holding a job.
  int64_t heartbeat_timeouts = 0;
  int64_t deadline_timeouts = 0;
  int64_t worker_errors = 0;       // Honest worker-side job failures reported.
  int64_t local_runs = 0;          // Jobs the coordinator ran itself.
};

class Coordinator {
 public:
  Coordinator(Manifest manifest, CoordinatorConfig config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Drives the campaign to completion. Returns true when every job is done; false
  // only via the halt_after_jobs test hook. Throws CampaignError as documented above.
  bool Run();

  const CoordinatorStats& stats() const { return stats_; }

  // Valid after Run() returned true.
  std::string EncodeArchiveBytes() const;
  std::vector<scenario::Results> DecodedResults() const;

 private:
  using Clock = std::chrono::steady_clock;

  enum class JobStatus { kPending, kDispatched, kDone };

  struct JobState {
    JobStatus status = JobStatus::kPending;
    int attempts = 0;                    // Dispatches so far (local runs included).
    Clock::time_point not_before{};      // Backoff gate for the next dispatch.
  };

  struct Conn {
    int fd = -1;
    LineReader reader;
    bool saw_hello = false;
    int64_t job = -1;                    // Dispatched job, -1 when idle.
    Clock::time_point dispatched_at{};
    Clock::time_point last_seen{};
    std::string name;
  };

  void LoadWal();
  void AppendWalRecord(int64_t job, const std::string& blob);
  void CompleteJob(int64_t job, std::string blob, bool from_wal);
  void RequeueJob(int64_t job, const char* why);
  int64_t NextReadyJob();
  bool AllJobsDone() const { return done_count_ == static_cast<int64_t>(jobs_.size()); }
  void HandleLine(Conn& conn, const std::string& line);
  void HandleRequest(Conn& conn);
  void HandleResult(Conn& conn, const Message& msg);
  void DropConn(Conn& conn, const char* why);
  void SweepDeadlines();
  void RunOneJobLocally(int64_t job);
  int PollTimeoutMs() const;

  Manifest manifest_;
  CoordinatorConfig config_;
  CoordinatorStats stats_;

  std::vector<JobState> jobs_;
  std::vector<std::string> job_blobs_;     // Encoded job specs, built once.
  std::vector<std::string> result_blobs_;  // Validated EncodeResults bytes, by job.
  size_t first_pending_ = 0;               // No job below this index is pending.
  int64_t done_count_ = 0;

  int listen_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::FILE* wal_ = nullptr;
  Clock::time_point last_worker_seen_{};
};

// Runs the whole manifest serially in-process and returns the archive bytes - the
// fault-free reference the distributed path must match byte for byte.
std::string RunSerialArchive(const Manifest& manifest);

}  // namespace tbf::campaign

#endif  // TBF_CAMPAIGN_COORDINATOR_H_

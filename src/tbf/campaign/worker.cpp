#include "tbf/campaign/worker.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "tbf/campaign/codec.h"
#include "tbf/campaign/manifest.h"
#include "tbf/campaign/wire.h"
#include "tbf/sweep/sweep_runner.h"

namespace tbf::campaign {
namespace {

using Clock = std::chrono::steady_clock;

// Outcome of running one job.
struct JobOutcome {
  bool ok = false;
  std::string blob;   // EncodeResults bytes on success.
  std::string error;  // Diagnostic on failure.
};

JobOutcome RunJob(const CampaignJob& job) {
  JobOutcome outcome;
  try {
    outcome.blob = EncodeResults(sweep::RunScenarioJob(ToScenarioJob(job)));
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  } catch (...) {
    outcome.error = "unknown exception";
  }
  return outcome;
}

// The worker's liveness signal. One thread lives as long as the worker and, while a
// job runs on the session thread, sends {"type":"heartbeat","job":i} at least once
// every interval, so liveness never depends on the (arbitrarily long) scenario. Every
// heartbeat is sent under the mutex and End() takes it, so no heartbeat for a job can
// follow that job's result on the wire.
class Heartbeat {
 public:
  explicit Heartbeat(int interval_ms)
      : interval_(std::max(1, interval_ms)), thread_([this] { Loop(); }) {}

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  // Starts heartbeating `job` on `fd`; the first beat is due one interval from now.
  void Begin(int fd, int64_t job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fd_ = fd;
      job_ = job;
      next_beat_ = Clock::now() + interval_;
      send_ok_ = true;
    }
    cv_.notify_one();
  }

  // Stops heartbeating. Returns false if a heartbeat send failed meanwhile (the
  // coordinator is gone; the caller drops the result).
  bool End() {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = -1;
    return send_ok_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (job_ < 0) {
        cv_.wait(lock);
        continue;
      }
      const Clock::time_point due = next_beat_;
      if (Clock::now() < due) {
        cv_.wait_until(lock, due);
        continue;  // Re-check: the job may have ended or been replaced.
      }
      Message beat;
      beat.type = "heartbeat";
      beat.job = job_;
      send_ok_ = send_ok_ && SendLine(fd_, FormatMessage(beat));
      next_beat_ = Clock::now() + interval_;
    }
  }

  const std::chrono::milliseconds interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  int fd_ = -1;
  int64_t job_ = -1;  // Job being heartbeated, -1 when none runs.
  Clock::time_point next_beat_{};
  bool send_ok_ = true;
  std::thread thread_;  // Last: starts after every field above is initialized.
};

// Blocks until a full line arrives (draining in WaitReadable-sized slices).
// Returns false on EOF/error/overlong.
bool ReadLine(int fd, LineReader* reader, std::string* line) {
  for (;;) {
    if (reader->NextLine(line)) {
      return true;
    }
    if (!WaitReadable(fd, 1000)) {
      continue;  // Idle is fine; the coordinator owns all deadlines.
    }
    if (!reader->Drain(fd)) {
      return reader->NextLine(line);  // Surface any final buffered line.
    }
  }
}

// How a session ended. kFaulted is a disconnect this worker injected itself (crash,
// corrupt, truncate): the coordinator was reachable a moment ago and is not the
// reason the session ended.
enum class SessionEnd { kShutdown, kDisconnected, kFaulted };

// Reads the next line where only a shutdown or a close can come: while waiting out a
// "wait", and after a failed send, when the coordinator may have said shutdown and
// closed before reading our request.
SessionEnd AwaitShutdown(int fd, LineReader* reader) {
  std::string line;
  Message msg;
  return ReadLine(fd, reader, &line) && ParseMessage(line, &msg) &&
                 msg.type == "shutdown"
             ? SessionEnd::kShutdown
             : SessionEnd::kDisconnected;
}

// One connection's lifetime: hello, then request/run/result until the coordinator
// says shutdown or the connection breaks. An honest result or error line shares one
// write with the next request: the same bytes as two writes, one syscall and one
// coordinator wake fewer. Lines are read one per request, in order, so a job the
// coordinator queued behind the running one is already waiting when the result goes
// out, and the worker starts it without a round trip.
SessionEnd RunSession(int fd, const WorkerConfig& config, FaultInjector* faults,
                      Heartbeat* heartbeat, WorkerStats* stats) {
  Message hello;
  hello.type = "hello";
  hello.protocol = kProtocolVersion;
  hello.name = config.name;
  if (!SendLine(fd, FormatMessage(hello))) {
    return SessionEnd::kDisconnected;
  }

  Message request;
  request.type = "request";
  const std::string request_line = FormatMessage(request);
  std::string turn;           // Lines sent with the next request: the last reply.
  bool turn_has_result = false;
  LineReader reader;
  for (;;) {
    turn += request_line;
    if (!SendLine(fd, turn)) {
      return AwaitShutdown(fd, &reader);
    }
    stats->results_sent += turn_has_result;
    turn.clear();
    turn_has_result = false;

    std::string line;
    if (!ReadLine(fd, &reader, &line)) {
      return SessionEnd::kDisconnected;
    }
    Message msg;
    if (!ParseMessage(line, &msg)) {
      return SessionEnd::kDisconnected;  // Treat protocol damage as a dead peer.
    }
    if (msg.type == "shutdown") {
      return SessionEnd::kShutdown;
    }
    if (msg.type == "wait") {
      // Idle before asking again, but wake at once for the campaign's shutdown.
      const int ms = msg.ms > 0 ? static_cast<int>(std::min<int64_t>(
                                      msg.ms, std::numeric_limits<int>::max()))
                                : 50;
      if (WaitReadable(fd, ms)) {
        return AwaitShutdown(fd, &reader);
      }
      continue;
    }
    if (msg.type != "job") {
      return SessionEnd::kDisconnected;
    }

    // Validate the job payload exactly as the coordinator validates results: the
    // worker does not run bytes that fail the envelope or the schema.
    std::string blob;
    CampaignJob job;
    if (!HexDecode(msg.data, &blob) ||
        msg.len != static_cast<int64_t>(blob.size()) ||
        msg.crc != static_cast<int64_t>(Crc32(blob)) || !DecodeJob(blob, &job)) {
      return SessionEnd::kDisconnected;
    }

    const FaultInjector::Fault fault = faults->Decide(msg.job);
    if (fault == FaultInjector::Fault::kCrash) {
      ++stats->faults_injected;
      return SessionEnd::kFaulted;  // Vanish mid-job, without a result.
    }
    if (fault == FaultInjector::Fault::kHang) {
      // Go silent: no heartbeats, no result. The coordinator's heartbeat deadline
      // fires and it drops us; we notice via the broken connection.
      ++stats->faults_injected;
      std::string discard;
      while (ReadLine(fd, &reader, &discard)) {
      }
      return SessionEnd::kDisconnected;
    }

    heartbeat->Begin(fd, msg.job);
    JobOutcome outcome = RunJob(job);
    if (!heartbeat->End()) {
      return SessionEnd::kDisconnected;  // Coordinator gone; drop the result.
    }
    ++stats->jobs_run;
    if (!outcome.ok) {
      Message error;
      error.type = "error";
      error.job = msg.job;
      error.error = outcome.error;
      turn = FormatMessage(error);
      turn.push_back('\n');
      continue;
    }

    // The envelope (len + crc) is computed over the honest bytes *before* any lying
    // mutation, so a corrupt fault ships a CRC mismatch and a truncate fault ships a
    // length mismatch - the two distinct validation failures the coordinator must
    // catch.
    Message result;
    result.type = "result";
    result.job = msg.job;
    result.len = static_cast<int64_t>(outcome.blob.size());
    result.crc = static_cast<int64_t>(Crc32(outcome.blob));
    if (fault == FaultInjector::Fault::kNone) {
      result.data = HexEncode(outcome.blob);
      turn = FormatMessage(result);
      turn.push_back('\n');
      turn_has_result = true;
      continue;
    }
    ++stats->faults_injected;
    if (fault == FaultInjector::Fault::kCorrupt) {
      FaultInjector::Corrupt(&outcome.blob,
                             config.faults.seed ^ static_cast<uint64_t>(msg.job));
    } else {
      FaultInjector::Truncate(&outcome.blob,
                              config.faults.seed ^ static_cast<uint64_t>(msg.job));
    }
    result.data = HexEncode(outcome.blob);
    if (!SendLine(fd, FormatMessage(result))) {
      return SessionEnd::kDisconnected;
    }
    ++stats->results_sent;
    // The coordinator drops liars; reconnect as a fresh peer rather than waiting to
    // discover the closed socket mid-request.
    return SessionEnd::kFaulted;
  }
}

}  // namespace

WorkerStats RunWorker(const WorkerConfig& config) {
  WorkerStats stats;
  FaultInjector faults(config.faults);
  Heartbeat heartbeat(config.heartbeat_interval_ms);
  int consecutive_failures = 0;
  for (;;) {
    const int fd = ConnectUnix(config.socket_path);
    if (fd < 0) {
      if (++consecutive_failures > config.max_reconnects) {
        break;  // Coordinator gone for good (campaign presumably finished).
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.reconnect_delay_ms));
      continue;
    }
    consecutive_failures = 0;
    const SessionEnd end = RunSession(fd, config, &faults, &heartbeat, &stats);
    ::close(fd);
    if (end == SessionEnd::kShutdown) {
      break;
    }
    ++stats.reconnects;
    // The delay spares a coordinator that dropped us or went away. After a fault this
    // worker injected itself the coordinator is up, so it reconnects at once: how many
    // faults a campaign sees then follows the jobs the worker runs, not the ratio of
    // the delay to the job time.
    if (end == SessionEnd::kDisconnected) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.reconnect_delay_ms));
    }
  }
  stats.faults_injected = faults.faults_injected();
  return stats;
}

}  // namespace tbf::campaign

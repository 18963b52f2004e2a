#include "tbf/campaign/coordinator.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "tbf/campaign/codec.h"
#include "tbf/util/logging.h"

namespace tbf::campaign {
namespace {

// WAL lines reuse the wire Message grammar: one strict JSON object per line.
//   header:  {"type":"wal","protocol":1,"job":<job count>,"crc":<manifest fingerprint>}
//   record:  {"type":"done","job":i,"len":..,"crc":..,"data":"<hex>"}
// Records are self-checking (len + CRC over the decoded hex), so a torn tail from a
// killed coordinator fails validation at exactly one line and everything before it is
// still trusted.
constexpr char kWalType[] = "wal";
constexpr char kDoneType[] = "done";

}  // namespace

Coordinator::Coordinator(Manifest manifest, CoordinatorConfig config)
    : manifest_(std::move(manifest)), config_(std::move(config)) {
  if (std::string err = ValidateManifest(manifest_); !err.empty()) {
    throw CampaignError("invalid manifest: " + err);
  }
  if (manifest_.jobs.empty()) {
    throw CampaignError("empty manifest");
  }
  jobs_.resize(manifest_.jobs.size());
  result_blobs_.resize(manifest_.jobs.size());
  job_blobs_.reserve(manifest_.jobs.size());
  for (const CampaignJob& job : manifest_.jobs) {
    job_blobs_.push_back(EncodeJob(job));
  }
}

Coordinator::~Coordinator() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    if (!config_.socket_path.empty()) {
      ::unlink(config_.socket_path.c_str());
    }
  }
  if (wal_ != nullptr) {
    std::fclose(wal_);
  }
}

void Coordinator::LoadWal() {
  std::FILE* f = std::fopen(config_.wal_path.c_str(), "rb");
  std::string contents;
  if (f != nullptr) {
    char chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      contents.append(chunk, n);
    }
    std::fclose(f);
  }

  const uint32_t fingerprint = ManifestFingerprint(manifest_);
  bool saw_header = false;
  size_t valid_bytes = 0;  // Prefix of the file known good; replay stops at the
                           // first line that fails any check (torn tail).
  size_t pos = 0;
  while (pos < contents.size()) {
    const size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) {
      break;  // Unterminated final line: a write was cut short mid-record.
    }
    const std::string_view line(contents.data() + pos, nl - pos);
    Message msg;
    if (!ParseMessage(line, &msg)) {
      break;
    }
    if (!saw_header) {
      if (msg.type != kWalType || msg.protocol != kProtocolVersion) {
        break;
      }
      // A log written for a different manifest must never be merged into this one.
      if (msg.crc != static_cast<int64_t>(fingerprint) ||
          msg.job != static_cast<int64_t>(jobs_.size())) {
        throw CampaignError("completion log " + config_.wal_path +
                            " belongs to a different manifest");
      }
      saw_header = true;
    } else {
      if (msg.type != kDoneType || msg.job < 0 ||
          msg.job >= static_cast<int64_t>(jobs_.size())) {
        break;
      }
      std::string blob;
      if (!HexDecode(msg.data, &blob) ||
          msg.len != static_cast<int64_t>(blob.size()) ||
          msg.crc != static_cast<int64_t>(Crc32(blob))) {
        break;
      }
      scenario::Results decoded;
      if (!DecodeResults(blob, &decoded)) {
        break;
      }
      if (jobs_[msg.job].status != JobStatus::kDone) {
        jobs_[msg.job].status = JobStatus::kDone;
        result_blobs_[msg.job] = std::move(blob);
        ++done_count_;
        ++stats_.resumed;
      }
    }
    pos = nl + 1;
    valid_bytes = pos;
  }

  wal_ = std::fopen(config_.wal_path.c_str(), saw_header ? "r+b" : "wb");
  if (wal_ == nullptr) {
    throw CampaignError("cannot open completion log " + config_.wal_path + ": " +
                        std::strerror(errno));
  }
  if (saw_header) {
    // Drop the torn tail so new records start on a clean line boundary.
    if (::ftruncate(::fileno(wal_), static_cast<off_t>(valid_bytes)) != 0) {
      throw CampaignError("cannot truncate completion log " + config_.wal_path);
    }
    std::fseek(wal_, 0, SEEK_END);
  } else {
    Message header;
    header.type = kWalType;
    header.protocol = kProtocolVersion;
    header.job = static_cast<int64_t>(jobs_.size());
    header.crc = static_cast<int64_t>(fingerprint);
    const std::string line = FormatMessage(header);
    std::fwrite(line.data(), 1, line.size(), wal_);
    std::fputc('\n', wal_);
    std::fflush(wal_);
  }
}

void Coordinator::AppendWalRecord(int64_t job, const std::string& blob) {
  if (wal_ == nullptr) {
    return;
  }
  Message record;
  record.type = kDoneType;
  record.job = job;
  record.len = static_cast<int64_t>(blob.size());
  record.crc = static_cast<int64_t>(Crc32(blob));
  record.data = HexEncode(blob);
  const std::string line = FormatMessage(record);
  std::fwrite(line.data(), 1, line.size(), wal_);
  std::fputc('\n', wal_);
  // Flushed before the job is counted done: a crash after this point re-reads the
  // record on resume; a crash before it re-runs the job. Either way the archive is
  // the same bytes.
  std::fflush(wal_);
}

void Coordinator::CompleteJob(int64_t job, std::string blob, bool from_wal) {
  JobState& state = jobs_[job];
  if (state.status == JobStatus::kDone) {
    return;  // Duplicate completion (e.g. a slow worker racing a re-dispatch).
  }
  if (!from_wal) {
    AppendWalRecord(job, blob);
  }
  state.status = JobStatus::kDone;
  result_blobs_[job] = std::move(blob);
  ++done_count_;
  ++stats_.completed;
}

void Coordinator::RequeueJob(int64_t job, const char* why) {
  JobState& state = jobs_[job];
  if (state.status != JobStatus::kDispatched) {
    return;
  }
  if (state.attempts >= config_.max_attempts) {
    throw CampaignError("job #" + std::to_string(job) + " failed " +
                        std::to_string(state.attempts) + " attempts (last: " + why +
                        ")");
  }
  state.status = JobStatus::kPending;
  first_pending_ = std::min(first_pending_, static_cast<size_t>(job));
  // Exponential backoff keeps a flapping worker pool from hammering the same job.
  int64_t backoff = config_.backoff_base_ms;
  for (int i = 1; i < state.attempts && backoff < config_.backoff_max_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::min<int64_t>(backoff, config_.backoff_max_ms);
  state.not_before = Clock::now() + std::chrono::milliseconds(backoff);
  ++stats_.redispatched;
}

int64_t Coordinator::NextReadyJob() {
  // Every job below first_pending_ is dispatched or done, and RequeueJob lowers the
  // mark when a job turns pending again, so a scan resumes where the last one found
  // work instead of at job 0 (O(jobs) per campaign, not O(jobs^2)).
  while (first_pending_ < jobs_.size() &&
         jobs_[first_pending_].status != JobStatus::kPending) {
    ++first_pending_;
  }
  const Clock::time_point now = Clock::now();
  for (size_t i = first_pending_; i < jobs_.size(); ++i) {
    if (jobs_[i].status == JobStatus::kPending && jobs_[i].not_before <= now) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

void Coordinator::HandleRequest(Conn& conn) {
  if (conn.job >= 0) {
    DropConn(conn, "request while holding a job");
    return;
  }
  const int64_t job = NextReadyJob();
  if (job < 0) {
    Message wait;
    wait.type = "wait";
    wait.ms = std::max(1, config_.backoff_base_ms);
    SendLine(conn.fd, FormatMessage(wait));
    return;
  }
  JobState& state = jobs_[job];
  state.status = JobStatus::kDispatched;
  ++state.attempts;
  Message dispatch;
  dispatch.type = "job";
  dispatch.job = job;
  dispatch.len = static_cast<int64_t>(job_blobs_[job].size());
  dispatch.crc = static_cast<int64_t>(Crc32(job_blobs_[job]));
  dispatch.data = HexEncode(job_blobs_[job]);
  if (!SendLine(conn.fd, FormatMessage(dispatch))) {
    RequeueJob(job, "send failed");
    DropConn(conn, "send failed");
    return;
  }
  conn.job = job;
  conn.dispatched_at = Clock::now();
  conn.last_seen = conn.dispatched_at;
  ++stats_.dispatched;
}

void Coordinator::HandleResult(Conn& conn, const Message& msg) {
  // Everything about this payload is untrusted until proven otherwise. Any
  // mismatch discards the payload, re-queues the job, and drops the connection -
  // a peer that sent one bad byte cannot be trusted with the next job either.
  const char* reject = nullptr;
  std::string blob;
  if (msg.job != conn.job) {
    reject = "result for a job this connection does not hold";
  } else if (!HexDecode(msg.data, &blob)) {
    reject = "payload is not valid hex";
  } else if (msg.len != static_cast<int64_t>(blob.size())) {
    reject = "payload length mismatch";
  } else if (msg.crc != static_cast<int64_t>(Crc32(blob))) {
    reject = "payload checksum mismatch";
  } else {
    scenario::Results decoded;
    if (!DecodeResults(blob, &decoded)) {
      reject = "payload fails schema validation";
    }
  }
  if (reject != nullptr) {
    ++stats_.rejected_payloads;
    const int64_t job = conn.job;
    if (job >= 0) {
      RequeueJob(job, reject);
    }
    conn.job = -1;
    DropConn(conn, reject);
    return;
  }
  const int64_t job = conn.job;
  conn.job = -1;
  conn.last_seen = Clock::now();
  CompleteJob(job, std::move(blob), /*from_wal=*/false);
}

void Coordinator::HandleLine(Conn& conn, const std::string& line) {
  Message msg;
  if (!ParseMessage(line, &msg)) {
    if (conn.job >= 0) {
      RequeueJob(conn.job, "malformed message");
      conn.job = -1;
    }
    DropConn(conn, "malformed message");
    return;
  }
  conn.last_seen = Clock::now();
  if (!conn.saw_hello) {
    if (msg.type != "hello" || msg.protocol != kProtocolVersion) {
      DropConn(conn, "bad hello");
      return;
    }
    conn.saw_hello = true;
    conn.name = msg.name;
    last_worker_seen_ = Clock::now();
    return;
  }
  if (msg.type == "request") {
    HandleRequest(conn);
  } else if (msg.type == "heartbeat") {
    if (msg.job != conn.job) {
      if (conn.job >= 0) {
        RequeueJob(conn.job, "heartbeat for wrong job");
        conn.job = -1;
      }
      DropConn(conn, "heartbeat for wrong job");
    }
  } else if (msg.type == "result") {
    HandleResult(conn, msg);
  } else if (msg.type == "error") {
    // An honest failure report: the worker ran the job and it threw. The job is
    // re-queued (another attempt may hit a healthier worker), the connection kept.
    ++stats_.worker_errors;
    if (conn.job >= 0) {
      RequeueJob(conn.job, msg.error.empty() ? "worker error" : msg.error.c_str());
      conn.job = -1;
    }
  } else {
    if (conn.job >= 0) {
      RequeueJob(conn.job, "unknown message type");
      conn.job = -1;
    }
    DropConn(conn, "unknown message type");
  }
}

void Coordinator::DropConn(Conn& conn, const char* why) {
  (void)why;
  if (conn.fd < 0) {
    return;
  }
  if (conn.job >= 0) {
    ++stats_.worker_disconnects;
    RequeueJob(conn.job, "worker disconnected");
    conn.job = -1;
  }
  ::close(conn.fd);
  conn.fd = -1;
}

void Coordinator::SweepDeadlines() {
  const Clock::time_point now = Clock::now();
  for (auto& conn : conns_) {
    if (conn->fd < 0 || conn->job < 0) {
      continue;
    }
    if (now - conn->dispatched_at >
        std::chrono::milliseconds(config_.job_timeout_ms)) {
      ++stats_.deadline_timeouts;
      const int64_t job = conn->job;
      conn->job = -1;
      RequeueJob(job, "job deadline exceeded");
      DropConn(*conn, "job deadline exceeded");
    } else if (now - conn->last_seen >
               std::chrono::milliseconds(config_.heartbeat_timeout_ms)) {
      ++stats_.heartbeat_timeouts;
      const int64_t job = conn->job;
      conn->job = -1;
      RequeueJob(job, "heartbeat timeout");
      DropConn(*conn, "heartbeat timeout");
    }
  }
}

void Coordinator::RunOneJobLocally(int64_t job) {
  JobState& state = jobs_[job];
  state.status = JobStatus::kDispatched;
  ++state.attempts;
  ++stats_.local_runs;
  // The local path produces bytes through the exact same encoder as a worker, so
  // archives cannot diverge based on where a job happened to run.
  const scenario::Results results = sweep::RunScenarioJob(ToScenarioJob(manifest_.jobs[job]));
  CompleteJob(job, EncodeResults(results), /*from_wal=*/false);
}

int Coordinator::PollTimeoutMs() const {
  // Short enough to notice heartbeat lapses and backoff expiry promptly.
  int timeout = std::max(10, config_.backoff_base_ms);
  timeout = std::min(timeout, std::max(10, config_.heartbeat_timeout_ms / 4));
  return timeout;
}

bool Coordinator::Run() {
  if (!config_.wal_path.empty()) {
    LoadWal();
  }

  if (!config_.socket_path.empty()) {
    std::string error;
    listen_fd_ = ListenUnix(config_.socket_path, &error);
    if (listen_fd_ < 0) {
      throw CampaignError(error);
    }
  }
  last_worker_seen_ = Clock::now();

  while (!AllJobsDone()) {
    if (config_.halt_after_jobs >= 0 &&
        stats_.completed >= config_.halt_after_jobs) {
      return false;  // Simulated kill: no shutdown messages, no archive.
    }

    // Pure local mode: no socket to serve, just run the manifest.
    if (listen_fd_ < 0) {
      const int64_t job = NextReadyJob();
      if (job < 0) {
        // Only backoff gates can make a job not-ready here; wait the shortest one out.
        Clock::time_point wake = Clock::time_point::max();
        for (const JobState& s : jobs_) {
          if (s.status == JobStatus::kPending) {
            wake = std::min(wake, s.not_before);
          }
        }
        TBF_CHECK(wake != Clock::time_point::max());
        std::this_thread::sleep_until(wake);
        continue;
      }
      RunOneJobLocally(job);
      continue;
    }

    // Socket mode: poll the listener and every live connection.
    std::vector<pollfd> pfds;
    pfds.push_back({listen_fd_, POLLIN, 0});
    std::vector<Conn*> polled;
    for (auto& conn : conns_) {
      if (conn->fd >= 0) {
        pfds.push_back({conn->fd, POLLIN, 0});
        polled.push_back(conn.get());
      }
    }
    const int rc = ::poll(pfds.data(), pfds.size(), PollTimeoutMs());
    if (rc < 0 && errno != EINTR) {
      throw CampaignError(std::string("poll: ") + std::strerror(errno));
    }

    if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          break;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->last_seen = Clock::now();
        conns_.push_back(std::move(conn));
      }
    }
    if (rc > 0) {
      for (size_t i = 0; i < polled.size(); ++i) {
        Conn& conn = *polled[i];
        if ((pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0 ||
            conn.fd < 0) {
          continue;
        }
        const bool alive = conn.reader.Drain(conn.fd);
        std::string line;
        while (conn.fd >= 0 && conn.reader.NextLine(&line)) {
          HandleLine(conn, line);
          if (config_.halt_after_jobs >= 0 &&
              stats_.completed >= config_.halt_after_jobs) {
            return false;
          }
        }
        if (conn.fd >= 0 && !alive) {
          DropConn(conn, conn.reader.overlong() ? "overlong line" : "peer closed");
        }
      }
    }

    SweepDeadlines();

    // Track worker presence for graceful degradation: any live, greeted
    // connection counts.
    bool have_worker = false;
    for (const auto& conn : conns_) {
      if (conn->fd >= 0 && conn->saw_hello) {
        have_worker = true;
        break;
      }
    }
    if (have_worker) {
      last_worker_seen_ = Clock::now();
    } else if (config_.local_fallback_after_ms >= 0 &&
               Clock::now() - last_worker_seen_ >
                   std::chrono::milliseconds(config_.local_fallback_after_ms)) {
      const int64_t job = NextReadyJob();
      if (job >= 0) {
        RunOneJobLocally(job);
        if (config_.halt_after_jobs >= 0 &&
            stats_.completed >= config_.halt_after_jobs) {
          return false;
        }
      }
    }

    // Reap closed connections.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->fd < 0;
                                }),
                 conns_.end());
  }

  // Courtesy shutdown so idle workers exit instead of retrying a vanished socket.
  for (auto& conn : conns_) {
    if (conn->fd >= 0) {
      Message bye;
      bye.type = "shutdown";
      SendLine(conn->fd, FormatMessage(bye));
    }
  }
  return true;
}

std::string Coordinator::EncodeArchiveBytes() const {
  TBF_CHECK(AllJobsDone());
  return EncodeArchive(result_blobs_);
}

std::vector<scenario::Results> Coordinator::DecodedResults() const {
  TBF_CHECK(AllJobsDone());
  std::vector<scenario::Results> out;
  out.reserve(jobs_.size());
  for (const std::string& blob : result_blobs_) {
    scenario::Results results;
    TBF_CHECK(DecodeResults(blob, &results));
    out.push_back(std::move(results));
  }
  return out;
}

std::string RunSerialArchive(const Manifest& manifest) {
  if (std::string err = ValidateManifest(manifest); !err.empty()) {
    throw CampaignError("invalid manifest: " + err);
  }
  std::vector<std::string> blobs;
  blobs.reserve(manifest.jobs.size());
  for (const CampaignJob& job : manifest.jobs) {
    blobs.push_back(EncodeResults(sweep::RunScenarioJob(ToScenarioJob(job))));
  }
  return EncodeArchive(blobs);
}

}  // namespace tbf::campaign

// tbf-campaign: CLI front end for the fault-tolerant campaign service.
//
// Modes (first argument):
//   serial      Run the manifest in-process, fault-free, and write the archive.
//               This is the byte-identity reference for everything else.
//   coordinate  Serve the manifest over a unix socket, with re-dispatch, deadlines,
//               payload validation, a write-ahead completion log, and (by default)
//               local fallback when no workers connect. Writes the same archive.
//   work        Connect to a coordinator and run jobs until told to shut down.
//               --fault-* flags turn the worker into a deterministic adversary.
//
// The manifest is the built-in smoke grid (campaign/manifest.h), parameterized by
// --jobs and --seed; both sides regenerate it from the same parameters and the
// coordinator's completion log is fingerprint-checked against it, so a mismatch
// fails loudly instead of merging foreign results.
//
// See docs/campaign.md for the protocol and failure semantics, and
// tools/campaign_smoke.sh for the kill-a-worker-mid-campaign CI gate built on this
// binary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "tbf/campaign/coordinator.h"
#include "tbf/campaign/manifest.h"
#include "tbf/campaign/worker.h"

namespace {

using namespace tbf;
using namespace tbf::campaign;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tbf-campaign serial     --jobs N --seed S [--duration-ms N] --out ARCHIVE\n"
      "  tbf-campaign coordinate --jobs N --seed S [--duration-ms N] --out ARCHIVE\n"
      "                          --socket PATH\n"
      "                          [--wal PATH] [--job-timeout-ms N]\n"
      "                          [--heartbeat-timeout-ms N] [--max-attempts N]\n"
      "                          [--no-local-fallback] [--halt-after N]\n"
      "  tbf-campaign work       --socket PATH [--name NAME]\n"
      "                          [--fault-seed S] [--fault-crash P] [--fault-hang P]\n"
      "                          [--fault-corrupt P] [--fault-truncate P]\n"
      "                          [--fault-repeat] [--heartbeat-ms N]\n"
      "                          [--max-reconnects N]\n");
  return 2;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

struct Args {
  // Shared.
  int jobs = 200;
  int duration_ms = 150;  // Simulated seconds-of-traffic per job (grid default).
  uint64_t seed = 1;
  std::string out;
  std::string socket;
  // coordinate.
  std::string wal;
  int job_timeout_ms = 60000;
  int heartbeat_timeout_ms = 5000;
  int max_attempts = 8;
  bool local_fallback = true;
  int halt_after = -1;
  // work.
  std::string name = "worker";
  int heartbeat_ms = 500;
  int max_reconnects = 100;
  FaultPlan faults;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](const char** value) {
      if (i + 1 >= argc) {
        return false;
      }
      *value = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (flag == "--jobs" && next(&v)) {
      args->jobs = std::atoi(v);
    } else if (flag == "--duration-ms" && next(&v)) {
      args->duration_ms = std::atoi(v);
    } else if (flag == "--seed" && next(&v)) {
      args->seed = static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (flag == "--out" && next(&v)) {
      args->out = v;
    } else if (flag == "--socket" && next(&v)) {
      args->socket = v;
    } else if (flag == "--wal" && next(&v)) {
      args->wal = v;
    } else if (flag == "--job-timeout-ms" && next(&v)) {
      args->job_timeout_ms = std::atoi(v);
    } else if (flag == "--heartbeat-timeout-ms" && next(&v)) {
      args->heartbeat_timeout_ms = std::atoi(v);
    } else if (flag == "--max-attempts" && next(&v)) {
      args->max_attempts = std::atoi(v);
    } else if (flag == "--no-local-fallback") {
      args->local_fallback = false;
    } else if (flag == "--halt-after" && next(&v)) {
      args->halt_after = std::atoi(v);
    } else if (flag == "--name" && next(&v)) {
      args->name = v;
    } else if (flag == "--heartbeat-ms" && next(&v)) {
      args->heartbeat_ms = std::atoi(v);
    } else if (flag == "--max-reconnects" && next(&v)) {
      args->max_reconnects = std::atoi(v);
    } else if (flag == "--fault-seed" && next(&v)) {
      args->faults.seed = static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (flag == "--fault-crash" && next(&v)) {
      args->faults.crash = std::atof(v);
    } else if (flag == "--fault-hang" && next(&v)) {
      args->faults.hang = std::atof(v);
    } else if (flag == "--fault-corrupt" && next(&v)) {
      args->faults.corrupt = std::atof(v);
    } else if (flag == "--fault-truncate" && next(&v)) {
      args->faults.truncate = std::atof(v);
    } else if (flag == "--fault-repeat") {
      args->faults.repeat = true;
    } else {
      std::fprintf(stderr, "tbf-campaign: bad flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

Manifest MakeManifest(const Args& args) {
  SmokeGridSpec spec;
  spec.jobs = args.jobs;
  spec.seed = args.seed;
  spec.duration = Ms(args.duration_ms);
  return MakeSmokeGrid(spec);
}

int RunSerial(const Args& args) {
  const std::string archive = RunSerialArchive(MakeManifest(args));
  if (!WriteFile(args.out, archive)) {
    std::fprintf(stderr, "tbf-campaign: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("serial: jobs=%d archive_bytes=%zu\n", args.jobs, archive.size());
  return 0;
}

int RunCoordinate(const Args& args) {
  CoordinatorConfig config;
  config.socket_path = args.socket;
  config.wal_path = args.wal;
  config.job_timeout_ms = args.job_timeout_ms;
  config.heartbeat_timeout_ms = args.heartbeat_timeout_ms;
  config.max_attempts = args.max_attempts;
  config.local_fallback_after_ms = args.local_fallback ? 500 : -1;
  config.halt_after_jobs = args.halt_after;

  Coordinator coordinator(MakeManifest(args), config);
  const bool finished = coordinator.Run();
  const CoordinatorStats& s = coordinator.stats();
  // One parseable stats line; the CI smoke script greps it to assert the faults it
  // injected were actually seen and survived, and that every dispatch is accounted
  // for: dispatched + local_runs == completed + redispatched + released.
  std::printf(
      "coordinate: finished=%d completed=%lld resumed=%lld dispatched=%lld "
      "redispatched=%lld rejected=%lld disconnects=%lld heartbeat_timeouts=%lld "
      "deadline_timeouts=%lld worker_errors=%lld local_runs=%lld released=%lld\n",
      finished ? 1 : 0, static_cast<long long>(s.completed),
      static_cast<long long>(s.resumed), static_cast<long long>(s.dispatched),
      static_cast<long long>(s.redispatched),
      static_cast<long long>(s.rejected_payloads),
      static_cast<long long>(s.worker_disconnects),
      static_cast<long long>(s.heartbeat_timeouts),
      static_cast<long long>(s.deadline_timeouts),
      static_cast<long long>(s.worker_errors),
      static_cast<long long>(s.local_runs), static_cast<long long>(s.released));
  if (!finished) {
    return 3;  // Halted by --halt-after; resume with the same --wal to finish.
  }
  if (!WriteFile(args.out, coordinator.EncodeArchiveBytes())) {
    std::fprintf(stderr, "tbf-campaign: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

int RunWork(const Args& args) {
  WorkerConfig config;
  config.socket_path = args.socket;
  config.name = args.name;
  config.heartbeat_interval_ms = args.heartbeat_ms;
  config.max_reconnects = args.max_reconnects;
  config.faults = args.faults;
  const WorkerStats s = RunWorker(config);
  std::printf("work: name=%s jobs_run=%lld results_sent=%lld faults=%lld "
              "reconnects=%lld\n",
              args.name.c_str(), static_cast<long long>(s.jobs_run),
              static_cast<long long>(s.results_sent),
              static_cast<long long>(s.faults_injected),
              static_cast<long long>(s.reconnects));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string mode = argv[1];
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  try {
    if (mode == "serial") {
      if (args.out.empty()) {
        return Usage();
      }
      return RunSerial(args);
    }
    if (mode == "coordinate") {
      if (args.out.empty() || args.socket.empty()) {
        return Usage();
      }
      return RunCoordinate(args);
    }
    if (mode == "work") {
      if (args.socket.empty()) {
        return Usage();
      }
      return RunWork(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tbf-campaign: %s\n", e.what());
    return 1;
  }
  return Usage();
}

// campaign_grid: a seeded manifest of 3000 small jobs through the campaign Coordinator
// and three in-process workers on a unix socket. The codec, the wire protocol, the
// coordinator and per-job scenario builds dominate while the MAC does little, so
// campaign changes show here and nowhere else.
#include <unistd.h>

#include <thread>

#include "perf.h"
#include "tbf/campaign/codec.h"
#include "tbf/campaign/coordinator.h"
#include "tbf/campaign/worker.h"

namespace tbf::perf {
namespace {

constexpr int kJobs = 3000;
constexpr int kWorkers = 3;

campaign::Manifest MakeManifest(uint64_t seed) {
  constexpr phy::WifiRate kRungs[] = {phy::WifiRate::k1Mbps, phy::WifiRate::k2Mbps,
                                      phy::WifiRate::k5_5Mbps, phy::WifiRate::k11Mbps};
  InputRng rng(seed, 4);
  campaign::Manifest manifest;
  for (int i = 0; i < kJobs; ++i) {
    campaign::CampaignJob job;
    switch (rng.Below(4)) {
      case 0:
        job.config.qdisc = scenario::QdiscKind::kFifo;
        break;
      case 1:
        job.config.qdisc = scenario::QdiscKind::kTbr;
        break;
      case 2:
        job.config.qdisc = scenario::QdiscKind::kTbr;
        job.config.tbr.mode = core::TbrMode::kFastEwma;
        break;
      default:
        job.config.qdisc = scenario::QdiscKind::kRoundRobin;
        break;
    }
    job.config.seed = rng.Next();
    job.config.warmup = Ms(100);
    job.config.duration = Sec(1);
    const bool tcp = rng.Below(2) == 0;
    const bool down = rng.Below(2) == 0;
    const int stations = 1 + static_cast<int>(rng.Below(8));
    for (int s = 0; s < stations; ++s) {
      scenario::StationSpec station;
      station.id = s + 1;
      station.rate = kRungs[rng.Below(4)];
      job.stations.push_back(station);
      scenario::FlowSpec flow;
      flow.client = station.id;
      flow.direction = down ? scenario::Direction::kDownlink : scenario::Direction::kUplink;
      flow.transport = tcp ? scenario::Transport::kTcp : scenario::Transport::kUdp;
      flow.udp_rate = Mbps(1);
      job.flows.push_back(flow);
    }
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

// Joins the worker threads on every exit path. Declared before the Coordinator, so
// the coordinator's sockets are closed first and a worker left waiting on one sees
// the close and exits.
struct WorkerThreads {
  std::vector<std::thread> threads;
  ~WorkerThreads() {
    for (std::thread& t : threads) {
      t.join();
    }
  }
};

struct CampaignRun {
  std::string archive;
  campaign::CoordinatorStats stats;
  double setup_s = 0.0;
  double run_s = 0.0;
};

CampaignRun RunCampaign(const campaign::Manifest& manifest, const std::string& socket,
                        Tracer* tracer, int64_t parent) {
  CampaignRun out;
  const Clock::time_point start = Clock::now();
  {
    WorkerThreads workers;
    campaign::CoordinatorConfig config;
    config.socket_path = socket;
    config.local_fallback_after_ms = -1;  // Every job crosses the socket.
    Span build(tracer, "Coordinator::Coordinator", parent);
    campaign::Coordinator coordinator(manifest, config);
    build.Close();
    for (int k = 0; k < kWorkers; ++k) {
      campaign::WorkerConfig wc;
      wc.socket_path = socket;
      wc.name = "perf-w" + std::to_string(k);
      wc.reconnect_delay_ms = 1;  // Workers start before the coordinator listens.
      wc.max_reconnects = 2000;
      workers.threads.emplace_back([wc] { campaign::RunWorker(wc); });
    }
    out.setup_s = SecondsBetween(start, Clock::now());
    bool finished = false;
    {
      Span run(tracer, "Coordinator::Run", parent);
      finished = coordinator.Run();
    }
    if (finished) {
      Span encode(tracer, "Coordinator::EncodeArchiveBytes", parent);
      out.archive = coordinator.EncodeArchiveBytes();
    }
    out.stats = coordinator.stats();
  }
  out.run_s = SecondsBetween(start, Clock::now());
  return out;
}

// Runs `body`, which makes `calls` calls of one codec function, as one batch span and
// returns the wall seconds per call.
template <typename F>
double PerCall(Tracer* tracer, const char* name, size_t calls, F&& body) {
  Span span(tracer, name);
  const Clock::time_point start = Clock::now();
  body();
  const double s = SecondsBetween(start, Clock::now());
  span.Close(-1, static_cast<int64_t>(calls));
  return s / static_cast<double>(calls);
}

}  // namespace

void RunCampaignGrid(const RunOptions& options, Tracer* tracer, Report* report) {
  const campaign::Manifest manifest = MakeManifest(options.seed);
  const std::string socket = "tbf_perf_" + std::to_string(::getpid()) + ".sock";

  std::string first_archive;
  std::vector<scenario::Results> results;
  campaign::CoordinatorStats stats;
  int64_t exchanges = 0;
  int64_t rep_mismatches = 0;
  int64_t traced_mismatches = 0;
  RunReps(options, tracer, 5, report, [&](Tracer* t, int64_t span) {
    report->attempted += kJobs;
    CampaignRun run = RunCampaign(manifest, socket, t, span);
    if (first_archive.empty()) {
      first_archive = std::move(run.archive);
      stats = run.stats;
      if (!campaign::DecodeArchive(first_archive, &results)) {
        throw campaign::CampaignError("the campaign archive does not decode");
      }
      for (const scenario::Results& r : results) {
        exchanges += r.mac_exchanges;
      }
    } else if (t != nullptr) {
      traced_mismatches += run.archive != first_archive;
    } else {
      rep_mismatches += run.archive != first_archive;
    }
    return RepTimes{run.run_s, run.setup_s, kJobs * ToSeconds(Ms(1100)), exchanges};
  });
  report->AddCheck("reps_identical", rep_mismatches);
  if (options.trace) {
    report->AddCheck("traced_counters_match", traced_mismatches);
  }

  Fnv digest;
  for (const scenario::Results& r : results) {
    AddOutcomes(r, &digest);
  }
  report->digest = digest.value();

  const Clock::time_point serial_start = Clock::now();
  std::string serial;
  {
    Span span(tracer, "RunSerialArchive");
    serial = campaign::RunSerialArchive(manifest);
  }
  const double serial_s = SecondsBetween(serial_start, Clock::now());
  report->AddCheck("archive_equals_serial", serial != first_archive);

  std::vector<CellView> views;
  for (size_t i = 0; i < results.size(); ++i) {
    views.push_back(CellView{&results[i], &manifest.jobs[i].stations});
  }
  AddOutcomeMetrics(views, report);
  auto& v = report->values;
  v["campaign.serial_s"] = serial_s;
  v["campaign.dist_over_serial"] = Median(report->reps["run_s"]) / serial_s;
  v["campaign.dispatched"] = static_cast<double>(stats.dispatched);
  v["campaign.redispatch_frac"] =
      static_cast<double>(stats.redispatched) / static_cast<double>(stats.dispatched);
  v["campaign.rejected_payloads"] = static_cast<double>(stats.rejected_payloads);
  v["campaign.archive_bytes"] = static_cast<double>(first_archive.size());
  if (tracer == nullptr) {
    return;
  }

  // Codec costs per call, over the campaign's real jobs and results.
  std::vector<std::string> job_blobs;
  v["campaign.encode_job_us"] = 1e6 * PerCall(tracer, "EncodeJob", kJobs, [&] {
    for (const campaign::CampaignJob& job : manifest.jobs) {
      job_blobs.push_back(campaign::EncodeJob(job));
    }
  });
  int64_t bad_decodes = 0;
  v["campaign.decode_job_us"] = 1e6 * PerCall(tracer, "DecodeJob", kJobs, [&] {
    for (const std::string& blob : job_blobs) {
      campaign::CampaignJob job;
      bad_decodes += !campaign::DecodeJob(blob, &job);
    }
  });
  std::vector<std::string> result_blobs;
  v["campaign.encode_results_us"] = 1e6 * PerCall(tracer, "EncodeResults", kJobs, [&] {
    for (const scenario::Results& r : results) {
      result_blobs.push_back(campaign::EncodeResults(r));
    }
  });
  v["campaign.decode_results_us"] = 1e6 * PerCall(tracer, "DecodeResults", kJobs, [&] {
    for (const std::string& blob : result_blobs) {
      scenario::Results r;
      bad_decodes += !campaign::DecodeResults(blob, &r);
    }
  });
  std::string archive;
  v["campaign.archive_encode_ms"] = 1e3 * PerCall(tracer, "EncodeArchive", 1, [&] {
    archive = campaign::EncodeArchive(result_blobs);
  });
  v["campaign.archive_decode_ms"] = 1e3 * PerCall(tracer, "DecodeArchive", 1, [&] {
    std::vector<scenario::Results> decoded;
    bad_decodes += !campaign::DecodeArchive(archive, &decoded);
  });
  report->AddCheck("codec_round_trip", bad_decodes + (archive != first_archive));
}

}  // namespace tbf::perf

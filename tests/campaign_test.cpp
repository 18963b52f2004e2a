// Campaign service: codec totality over hostile bytes, strict wire parsing,
// deterministic fault injection, and the end-to-end robustness bar - a distributed
// campaign with crashed, hung, and lying workers merges byte-identically to a
// fault-free serial run, and a killed coordinator resumes from its completion log
// re-running only the jobs with no valid record.
//
// The clean tests (codec, wire, manifest, clean end-to-end) are safe under
// sanitizers; the fault-driven tests (CampaignStressTest, resume) depend on
// real-time heartbeat deadlines and are kept out of the sanitizer CTest regexes.
// The clean long-job test has a deadline too, but a 20 ms heartbeat has 400 ms to
// beat it, and instrumentation slows the jobs, not the beat.
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tbf/campaign/codec.h"
#include "tbf/campaign/coordinator.h"
#include "tbf/campaign/fault_injector.h"
#include "tbf/campaign/manifest.h"
#include "tbf/campaign/wire.h"
#include "tbf/campaign/worker.h"

namespace tbf::campaign {
namespace {

Manifest SmallManifest(int jobs, uint64_t seed = 7) {
  SmokeGridSpec spec;
  spec.jobs = jobs;
  spec.seed = seed;
  return MakeSmokeGrid(spec);
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "campaign_" + name + "_" +
         std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

TEST(CampaignCodecTest, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(CampaignCodecTest, HexRoundTripsArbitraryBytes) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) {
    bytes.push_back(static_cast<char>(i));
  }
  const std::string hex = HexEncode(bytes);
  EXPECT_EQ(hex.size(), bytes.size() * 2);
  std::string back;
  ASSERT_TRUE(HexDecode(hex, &back));
  EXPECT_EQ(back, bytes);
  EXPECT_FALSE(HexDecode("abc", &back));   // Odd length.
  EXPECT_FALSE(HexDecode("zz", &back));    // Non-hex digit.
  EXPECT_FALSE(HexDecode("AB", &back));    // Uppercase is not canonical.
  EXPECT_FALSE(HexDecode(hex.substr(1), &back));
  for (const size_t pos : {size_t{0}, hex.size() - 1}) {
    // Uppercase digits, the neighbours of each digit range, and non-ASCII bytes.
    for (const char bad : {'A', 'F', 'g', '/', ':', '`', ' ', '\0', '\xff'}) {
      std::string damaged = hex;
      damaged[pos] = bad;
      EXPECT_FALSE(HexDecode(damaged, &back)) << pos << " " << int{bad};
    }
  }
}

// Bit-at-a-time CRC-32 straight from the reflected IEEE polynomial: no tables, so it
// shares nothing with the sliced implementation it checks.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

std::string SeededBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng() & 0xff);
  }
  return bytes;
}

TEST(CampaignCodecTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-64 at offsets 0-7 cover every split into 8-byte blocks plus a tail,
  // from every starting alignment.
  const std::string bytes = SeededBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view slice(bytes.data() + offset, len);
      EXPECT_EQ(Crc32(slice), ReferenceCrc32(slice)) << offset << "+" << len;
    }
  }
  const std::string large = SeededBytes(1u << 20, 2);
  EXPECT_EQ(Crc32(large), ReferenceCrc32(large));
}

TEST(CampaignCodecTest, JobRoundTripsExactly) {
  const Manifest manifest = SmallManifest(12);
  for (const CampaignJob& job : manifest.jobs) {
    const std::string blob = EncodeJob(job);
    CampaignJob back;
    ASSERT_TRUE(DecodeJob(blob, &back));
    EXPECT_EQ(back, job);
    // Re-encoding decoded state is byte-identical: the codec is canonical.
    EXPECT_EQ(EncodeJob(back), blob);
  }
}

TEST(CampaignCodecTest, ResultsRoundTripExactly) {
  const Manifest manifest = SmallManifest(4);
  for (const CampaignJob& job : manifest.jobs) {
    const scenario::Results results = sweep::RunScenarioJob(ToScenarioJob(job));
    const std::string blob = EncodeResults(results);
    scenario::Results back;
    ASSERT_TRUE(DecodeResults(blob, &back));
    EXPECT_EQ(back, results);
    EXPECT_EQ(EncodeResults(back), blob);
  }
}

TEST(CampaignCodecTest, TruncatedPayloadsAreRejectedNotCrashes) {
  const Manifest manifest = SmallManifest(1);
  const std::string job_blob = EncodeJob(manifest.jobs[0]);
  const std::string results_blob =
      EncodeResults(sweep::RunScenarioJob(ToScenarioJob(manifest.jobs[0])));
  // Every proper prefix must be cleanly rejected - the decoder is total.
  for (size_t n = 0; n < job_blob.size(); ++n) {
    CampaignJob out;
    EXPECT_FALSE(DecodeJob(std::string_view(job_blob.data(), n), &out)) << n;
  }
  for (size_t n = 0; n < results_blob.size(); ++n) {
    scenario::Results out;
    EXPECT_FALSE(DecodeResults(std::string_view(results_blob.data(), n), &out))
        << n;
  }
  // Trailing garbage is also a schema violation, not silently ignored.
  scenario::Results out;
  EXPECT_FALSE(DecodeResults(results_blob + "x", &out));
}

TEST(CampaignCodecTest, ArchiveRoundTripsAndValidatesTrailer) {
  const Manifest manifest = SmallManifest(6);
  std::vector<std::string> blobs;
  std::vector<scenario::Results> expected;
  for (const CampaignJob& job : manifest.jobs) {
    expected.push_back(sweep::RunScenarioJob(ToScenarioJob(job)));
    blobs.push_back(EncodeResults(expected.back()));
  }
  const std::string archive = EncodeArchive(blobs);

  std::vector<scenario::Results> decoded;
  ASSERT_TRUE(DecodeArchive(archive, &decoded));
  EXPECT_EQ(decoded, expected);

  MergedSummary summary;
  ASSERT_TRUE(DecodeArchiveSummary(archive, &summary));
  EXPECT_EQ(summary, MergeResults(expected));
  EXPECT_EQ(summary.jobs, 6);

  // A flipped byte anywhere invalidates the archive (per-blob CRC or trailer).
  for (size_t pos : {size_t{4}, archive.size() / 2, archive.size() - 3}) {
    std::string bad = archive;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    std::vector<scenario::Results> out;
    EXPECT_FALSE(DecodeArchive(bad, &out)) << pos;
  }
}

TEST(CampaignCodecTest, WindowedResultsRoundTripExactly) {
  Manifest manifest = SmallManifest(2);
  for (CampaignJob& job : manifest.jobs) {
    // Streaming metrology config: windowed series plus sampled retention, so the
    // round-trip covers the v2 sections (stats config, series, FlowResult::exact).
    job.config.stats.window = Ms(100);
    job.config.stats.top_k = 1;
    job.config.stats.sample_every = 0;

    const std::string job_blob = EncodeJob(job);
    CampaignJob job_back;
    ASSERT_TRUE(DecodeJob(job_blob, &job_back));
    EXPECT_EQ(job_back, job);  // StatsConfig is part of CampaignJob equality.

    const scenario::Results results = sweep::RunScenarioJob(ToScenarioJob(job));
    // Smoke-grid flows push downlink data through the AP qdisc, so the queue-delay
    // meter is guaranteed samples (the flows are unbounded bulk - no task series),
    // and delivered bytes populate the windowed goodput series (v3 section).
    EXPECT_FALSE(results.ap_queue_delay_series.windows.empty());
    EXPECT_FALSE(results.goodput_series.windows.empty());
    const std::string blob = EncodeResults(results);
    scenario::Results back;
    ASSERT_TRUE(DecodeResults(blob, &back));
    EXPECT_EQ(back, results);  // Includes series and per-flow exact flags.
    EXPECT_EQ(EncodeResults(back), blob);
  }
}

TEST(CampaignCodecTest, AdaptiveTbrConfigRoundTripsExactly) {
  // The v3 layout added the adaptive scheduler family: TbrMode plus its knobs lead the
  // TBR section, and the qdisc enum grew three kinds. Non-default values for every new
  // field must survive the round trip bit for bit.
  Manifest manifest = SmallManifest(1);
  CampaignJob job = manifest.jobs[0];
  job.config.qdisc = scenario::QdiscKind::kTbrCreditHybrid;
  job.config.tbr.mode = core::TbrMode::kCreditHybrid;
  job.config.tbr.burst_credit = Ms(123);
  job.config.tbr.demand_period = Ms(25);
  job.config.tbr.demand_alpha = 0.45;
  job.config.tbr.demand_active_threshold = 0.05;
  job.config.tbr.hybrid_debt_cap = Ms(321);
  job.config.tbr.contention_contenders = 7;
  const std::string blob = EncodeJob(job);
  CampaignJob back;
  ASSERT_TRUE(DecodeJob(blob, &back));
  EXPECT_EQ(back, job);
  EXPECT_EQ(EncodeJob(back), blob);

  // The other two new qdisc kinds sit at the top of the widened enum range
  // (QdiscKind ceiling 7, TbrMode ceiling 3) - they must decode as themselves.
  for (const auto kind : {scenario::QdiscKind::kTbrBurstCredit,
                          scenario::QdiscKind::kTbrFastEwma}) {
    CampaignJob j = manifest.jobs[0];
    j.config.qdisc = kind;
    CampaignJob b;
    ASSERT_TRUE(DecodeJob(EncodeJob(j), &b));
    EXPECT_EQ(b.config.qdisc, kind);
  }
}

TEST(CampaignCodecTest, PreWindowedPayloadMagicsAreRejected) {
  const Manifest manifest = SmallManifest(1);
  // v1 blobs led with "CAJ1"/"CAR1"; a v2 decoder must reject them outright rather
  // than misparse the old layout.
  std::string job_blob = EncodeJob(manifest.jobs[0]);
  job_blob[3] = '1';  // "CAJ3" -> "CAJ1" (little-endian: byte 3 is the high byte).
  CampaignJob job_out;
  EXPECT_FALSE(DecodeJob(job_blob, &job_out));

  std::string results_blob =
      EncodeResults(sweep::RunScenarioJob(ToScenarioJob(manifest.jobs[0])));
  results_blob[3] = '1';  // "CAR3" -> "CAR1".
  scenario::Results results_out;
  EXPECT_FALSE(DecodeResults(results_blob, &results_out));
}

TEST(CampaignCodecTest, StaleArchiveVersionThrowsNamingTheVersion) {
  const Manifest manifest = SmallManifest(1);
  const std::string blob =
      EncodeResults(sweep::RunScenarioJob(ToScenarioJob(manifest.jobs[0])));
  std::string archive = EncodeArchive({blob});
  // Patch the version field (u32 at offset 4) down to the pre-windowed format.
  archive[4] = 1;
  archive[5] = archive[6] = archive[7] = 0;
  std::vector<scenario::Results> out;
  try {
    DecodeArchive(archive, &out);
    FAIL() << "stale archive version must throw CampaignError";
  } catch (const CampaignError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos) << e.what();
  }
  MergedSummary summary;
  EXPECT_THROW(DecodeArchiveSummary(archive, &summary), CampaignError);

  // A *future* version is indistinguishable from corruption: false, not a throw.
  archive[4] = 4;
  EXPECT_FALSE(DecodeArchive(archive, &out));
}

// ---------------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------------

TEST(CampaignWireTest, MessagesRoundTripThroughFormatAndParse) {
  Message msg;
  msg.type = "result";
  msg.job = 123;
  msg.len = 4567;
  msg.crc = 0x7fffffff;
  msg.data = "00ff17";
  msg.name = "worker \"quoted\"\n\ttab";
  msg.error = "failed: \\ backslash";
  const std::string line = FormatMessage(msg);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // One message = one line, always.
  Message back;
  ASSERT_TRUE(ParseMessage(line, &back));
  EXPECT_EQ(back, msg);

  // Escaped characters first, last, back to back, and at every position of a
  // 20-byte plain run, so each run the scanner copies in one append ends right.
  std::vector<std::string> strings = {"\"", "\\", "\x01", "\"\\\x01\"\\",
                                      "\"plain", "plain\\", "\x01plain\x01"};
  for (size_t pos = 0; pos < 20; ++pos) {
    for (const char esc : {'"', '\\', '\x01', '\n'}) {
      std::string s(20, 'x');
      s[pos] = esc;
      strings.push_back(s);
    }
  }
  for (const std::string& s : strings) {
    Message m;
    m.type = s;
    m.name = s;
    m.error = s;
    const std::string escaped = FormatMessage(m);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    Message parsed;
    ASSERT_TRUE(ParseMessage(escaped, &parsed)) << escaped;
    EXPECT_EQ(parsed, m) << escaped;
  }

  // A 1 MiB payload: plain hex with escapes planted at both ends and in the middle.
  Message big;
  big.type = "result";
  big.data = HexEncode(SeededBytes(1u << 19, 3));
  big.data.front() = '"';
  big.data[big.data.size() / 2] = '\x1f';
  big.data.back() = '\\';
  ASSERT_TRUE(ParseMessage(FormatMessage(big), &back));
  EXPECT_EQ(back, big);
}

TEST(CampaignWireTest, MalformedLinesAreRejected) {
  Message out;
  EXPECT_FALSE(ParseMessage("", &out));
  EXPECT_FALSE(ParseMessage("not json", &out));
  EXPECT_FALSE(ParseMessage("{}", &out));  // type is required.
  EXPECT_FALSE(ParseMessage(R"({"type":"x"} trailing)", &out));
  EXPECT_FALSE(ParseMessage(R"({"type":"x","unknown":1})", &out));
  EXPECT_FALSE(ParseMessage(R"({"type":"x","job":})", &out));
  EXPECT_FALSE(ParseMessage(R"({"type":"x","job":"str"})", &out));  // Wrong type.
  EXPECT_FALSE(ParseMessage(R"({"type":"x")", &out));               // Unterminated.
  EXPECT_FALSE(ParseMessage("{\"type\":\"a\tb\"}", &out));  // Raw control char.
  EXPECT_FALSE(ParseMessage(R"({"type":"\u1234"})", &out));  // Escape beyond 0xff.
}

// ---------------------------------------------------------------------------
// Fault injector.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.crash = 0.1;
  plan.hang = 0.1;
  plan.corrupt = 0.2;
  plan.truncate = 0.1;
  plan.repeat = true;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int64_t job = 0; job < 500; ++job) {
    EXPECT_EQ(a.Decide(job), b.Decide(job)) << job;
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  // Roughly half the executions should fault at these rates.
  EXPECT_GT(a.faults_injected(), 150);
  EXPECT_LT(a.faults_injected(), 350);

  FaultPlan other = plan;
  other.seed = 43;
  FaultInjector c(other);
  int diffs = 0;
  FaultInjector a2(plan);
  for (int64_t job = 0; job < 500; ++job) {
    diffs += a2.Decide(job) != c.Decide(job);
  }
  EXPECT_GT(diffs, 0);  // A different seed is a different schedule.
}

TEST(FaultInjectorTest, NonRepeatFaultsOnlyFirstExecution) {
  FaultPlan plan;
  plan.seed = 1;
  plan.crash = 1.0;  // Every first execution faults...
  FaultInjector injector(plan);
  for (int64_t job = 0; job < 20; ++job) {
    EXPECT_EQ(injector.Decide(job), FaultInjector::Fault::kCrash);
    // ...and every re-execution is clean, so campaigns terminate.
    EXPECT_EQ(injector.Decide(job), FaultInjector::Fault::kNone);
    EXPECT_EQ(injector.Decide(job), FaultInjector::Fault::kNone);
  }
}

TEST(FaultInjectorTest, FaultBudgetIsHonored) {
  FaultPlan plan;
  plan.seed = 1;
  plan.crash = 1.0;
  plan.max_faults = 3;
  FaultInjector injector(plan);
  int faults = 0;
  for (int64_t job = 0; job < 100; ++job) {
    faults += injector.Decide(job) != FaultInjector::Fault::kNone;
  }
  EXPECT_EQ(faults, 3);
}

TEST(FaultInjectorTest, CorruptAndTruncateAlwaysDamageThePayload) {
  for (uint64_t key = 0; key < 64; ++key) {
    const std::string original(1 + key % 37, 'x');
    std::string corrupted = original;
    FaultInjector::Corrupt(&corrupted, key);
    EXPECT_EQ(corrupted.size(), original.size());
    EXPECT_NE(corrupted, original) << key;  // CRC validation must be able to fire.
    std::string truncated = original;
    FaultInjector::Truncate(&truncated, key);
    EXPECT_LT(truncated.size(), original.size()) << key;
  }
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

TEST(CampaignManifestTest, FingerprintIdentifiesTheManifest) {
  EXPECT_EQ(ManifestFingerprint(SmallManifest(20, 7)),
            ManifestFingerprint(SmallManifest(20, 7)));
  EXPECT_NE(ManifestFingerprint(SmallManifest(20, 7)),
            ManifestFingerprint(SmallManifest(20, 8)));
  EXPECT_NE(ManifestFingerprint(SmallManifest(20, 7)),
            ManifestFingerprint(SmallManifest(21, 7)));
}

TEST(CampaignManifestTest, InvalidManifestIsRejectedUpFront) {
  Manifest manifest = SmallManifest(3);
  manifest.jobs[1].flows[0].client = 99;  // No such station.
  const std::string err = ValidateManifest(manifest);
  EXPECT_NE(err.find("job #1"), std::string::npos) << err;
  EXPECT_THROW(Coordinator(manifest, CoordinatorConfig{}), CampaignError);
  EXPECT_THROW(RunSerialArchive(manifest), CampaignError);
  EXPECT_THROW(Coordinator(Manifest{}, CoordinatorConfig{}), CampaignError);
}

// ---------------------------------------------------------------------------
// End-to-end campaigns. Each test pins the same acceptance bar: the archive must
// be byte-identical to the fault-free serial reference.
// ---------------------------------------------------------------------------

struct WorkerHandle {
  std::thread thread;
  WorkerStats stats;
};

// Runs a campaign over a real unix socket with the given worker fleet; returns the
// archive. The coordinator is destroyed before workers are joined so stragglers
// observe EOF instead of blocking on a silent socket.
std::string RunCampaign(const Manifest& manifest, CoordinatorConfig config,
                        std::vector<WorkerConfig> worker_configs,
                        CoordinatorStats* stats_out = nullptr,
                        std::vector<WorkerStats>* worker_stats_out = nullptr) {
  auto coordinator = std::make_unique<Coordinator>(manifest, config);
  // Each handle is built in place (the reserve keeps it from moving), so the thread's
  // final stats write lands in the vector element it was given.
  std::vector<WorkerHandle> workers;
  workers.reserve(worker_configs.size());
  for (const WorkerConfig& wc : worker_configs) {
    WorkerHandle& handle = workers.emplace_back();
    handle.thread = std::thread([wc, stats = &handle.stats] { *stats = RunWorker(wc); });
  }
  const bool finished = coordinator->Run();
  EXPECT_TRUE(finished);
  if (stats_out != nullptr) {
    *stats_out = coordinator->stats();
  }
  std::string archive = finished ? coordinator->EncodeArchiveBytes() : "";
  coordinator.reset();
  for (WorkerHandle& w : workers) {
    w.thread.join();
    if (worker_stats_out != nullptr) {
      worker_stats_out->push_back(w.stats);
    }
  }
  return archive;
}

WorkerConfig HonestWorker(const std::string& socket, const std::string& name) {
  WorkerConfig config;
  config.socket_path = socket;
  config.name = name;
  config.heartbeat_interval_ms = 50;
  config.reconnect_delay_ms = 10;
  config.max_reconnects = 50;
  return config;
}

TEST(CampaignServiceTest, PureLocalModeMatchesSerial) {
  const Manifest manifest = SmallManifest(30);
  CoordinatorConfig config;  // No socket, no WAL: plain in-process execution.
  Coordinator coordinator(manifest, config);
  ASSERT_TRUE(coordinator.Run());
  EXPECT_EQ(coordinator.EncodeArchiveBytes(), RunSerialArchive(manifest));
  EXPECT_EQ(coordinator.stats().local_runs, 30);
  EXPECT_EQ(coordinator.DecodedResults().size(), 30u);
}

TEST(CampaignServiceTest, LocalFallbackServesCampaignWithNoWorkers) {
  const Manifest manifest = SmallManifest(20);
  CoordinatorConfig config;
  config.socket_path = TempPath("fallback.sock");
  config.local_fallback_after_ms = 0;  // Degrade immediately: nobody is coming.
  CoordinatorStats stats;
  const std::string archive = RunCampaign(manifest, config, {}, &stats);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(stats.local_runs, 20);
}

TEST(CampaignServiceTest, DistributedCleanRunMatchesSerial) {
  const Manifest manifest = SmallManifest(60);
  CoordinatorConfig config;
  config.socket_path = TempPath("clean.sock");
  config.local_fallback_after_ms = -1;  // Workers must carry the whole campaign.
  CoordinatorStats stats;
  const std::string archive = RunCampaign(
      manifest, config,
      {HonestWorker(config.socket_path, "w1"),
       HonestWorker(config.socket_path, "w2"),
       HonestWorker(config.socket_path, "w3")},
      &stats);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(stats.completed, 60);
  EXPECT_EQ(stats.local_runs, 0);
  EXPECT_EQ(stats.rejected_payloads, 0);
}

// Jobs that run several heartbeat timeouts long: the long-lived heartbeat thread must
// keep each one alive, and must fall silent when its job ends. A late heartbeat for a
// finished job reads as "heartbeat for wrong job": the coordinator drops the worker
// (and re-dispatches whatever it held), so the worker would log a reconnect. With two
// workers and three jobs, one worker idles on "wait" replies through the last job.
TEST(CampaignServiceTest, LongJobsStayAliveOnHeartbeats) {
  SmokeGridSpec spec;
  spec.jobs = 4;
  spec.seed = 7;
  spec.duration = Sec(12000);  // ~1.2 s of wall time per UDP job in a Release build.
  Manifest manifest = MakeSmokeGrid(spec);
  manifest.jobs.erase(manifest.jobs.begin());  // Job 0 is a TCP job, 4x as slow.
  CoordinatorConfig config;
  config.socket_path = TempPath("long.sock");
  config.local_fallback_after_ms = -1;
  config.heartbeat_timeout_ms = 400;
  std::vector<WorkerConfig> workers;
  for (const char* name : {"slow1", "slow2"}) {
    workers.push_back(HonestWorker(config.socket_path, name));
    workers.back().heartbeat_interval_ms = 20;
  }
  CoordinatorStats stats;
  std::vector<WorkerStats> worker_stats;
  const std::string archive =
      RunCampaign(manifest, config, workers, &stats, &worker_stats);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.heartbeat_timeouts, 0);
  EXPECT_EQ(stats.redispatched, 0);
  ASSERT_EQ(worker_stats.size(), 2u);
  for (const WorkerStats& w : worker_stats) {
    EXPECT_EQ(w.reconnects, 0);
  }
  EXPECT_EQ(worker_stats[0].jobs_run + worker_stats[1].jobs_run, 3);
}

// The headline acceptance test: a large campaign where workers crash mid-job, hang
// without heartbeats, and ship corrupted/truncated payloads - and the merged output
// is still byte-for-byte the fault-free serial reference.
TEST(CampaignStressTest, FaultRiddenCampaignMergesByteIdenticalToSerial) {
  const Manifest manifest = SmallManifest(1000, 11);
  CoordinatorConfig config;
  config.socket_path = TempPath("stress.sock");
  config.local_fallback_after_ms = -1;
  config.heartbeat_timeout_ms = 400;
  config.job_timeout_ms = 30000;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 20;
  // Generous attempt budget: with repeat=false a (worker, job) pair faults at most
  // once, so healthy runs use ~2 attempts worst-case - the headroom is for CPU
  // starvation under a parallel ctest, where late heartbeats also burn attempts.
  config.max_attempts = 25;

  auto faulty = [&](const char* name, uint64_t seed) {
    WorkerConfig wc = HonestWorker(config.socket_path, name);
    wc.max_reconnects = 300;
    wc.faults.seed = seed;
    wc.faults.crash = 0.08;
    wc.faults.hang = 0.02;
    wc.faults.corrupt = 0.15;   // With truncate: >20% of first executions lie.
    wc.faults.truncate = 0.08;
    return wc;
  };

  CoordinatorStats stats;
  const std::string archive =
      RunCampaign(manifest, config,
                  {faulty("f1", 101), faulty("f2", 202),
                   HonestWorker(config.socket_path, "honest")},
                  &stats);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(stats.completed, 1000);
  // Every failure mode must actually have been exercised and survived.
  EXPECT_GT(stats.rejected_payloads, 0) << "no corrupt/truncated payloads seen";
  EXPECT_GT(stats.worker_disconnects, 0) << "no crashes seen";
  EXPECT_GT(stats.heartbeat_timeouts, 0) << "no hangs seen";
  EXPECT_GT(stats.redispatched, 0);
}

TEST(CampaignResumeTest, KilledCoordinatorResumesOnlyIncompleteJobs) {
  const Manifest manifest = SmallManifest(200, 5);
  const std::string wal = TempPath("resume.wal");
  std::remove(wal.c_str());
  const std::string serial = RunSerialArchive(manifest);

  // First run "dies" (halt hook = kill -9 as observed from outside) after 70 jobs.
  {
    CoordinatorConfig config;
    config.wal_path = wal;
    config.halt_after_jobs = 70;
    Coordinator coordinator(manifest, config);
    EXPECT_FALSE(coordinator.Run());
    EXPECT_EQ(coordinator.stats().completed, 70);
  }

  // A torn final record (the fwrite the kill interrupted) must not poison resume.
  {
    std::FILE* f = std::fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"done\",\"job\":199,\"len\":12,\"crc\":1,\"da", f);
    std::fclose(f);
  }

  {
    CoordinatorConfig config;
    config.wal_path = wal;
    Coordinator coordinator(manifest, config);
    ASSERT_TRUE(coordinator.Run());
    EXPECT_EQ(coordinator.stats().resumed, 70);    // Recovered, not re-run.
    EXPECT_EQ(coordinator.stats().completed, 130);  // Only the incomplete jobs.
    EXPECT_EQ(coordinator.EncodeArchiveBytes(), serial);
  }

  // Idempotent: resuming a finished campaign re-runs nothing.
  {
    CoordinatorConfig config;
    config.wal_path = wal;
    Coordinator coordinator(manifest, config);
    ASSERT_TRUE(coordinator.Run());
    EXPECT_EQ(coordinator.stats().resumed, 200);
    EXPECT_EQ(coordinator.stats().completed, 0);
    EXPECT_EQ(coordinator.EncodeArchiveBytes(), serial);
  }
  std::remove(wal.c_str());
}

TEST(CampaignResumeTest, LogFromDifferentManifestIsRefused) {
  const std::string wal = TempPath("mismatch.wal");
  std::remove(wal.c_str());
  {
    CoordinatorConfig config;
    config.wal_path = wal;
    config.halt_after_jobs = 5;
    Coordinator coordinator(SmallManifest(50, 1), config);
    EXPECT_FALSE(coordinator.Run());
  }
  {
    CoordinatorConfig config;
    config.wal_path = wal;
    Coordinator coordinator(SmallManifest(50, 2), config);  // Different seed.
    EXPECT_THROW(coordinator.Run(), CampaignError);
  }
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace tbf::campaign

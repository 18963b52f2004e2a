// Campaign service: codec totality over hostile bytes, strict wire parsing,
// deterministic fault injection, and the end-to-end robustness bar - a distributed
// campaign with crashed, hung, and lying workers merges byte-identically to a
// fault-free serial run, and a killed coordinator resumes from its completion log
// re-running only the jobs with no valid record.
//
// Every test runs under ASan+UBSan in CI; the TSan job runs CampaignServiceTest.
// Those tests, the dealing and failure-accounting ones included, use no hang fault
// and no tight deadline; CampaignStressTest depends on real-time heartbeat deadlines.
// The clean long-job test has a deadline too, but a 20 ms heartbeat has 400 ms to
// beat it, and instrumentation slows the jobs, not the beat.
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
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
  CampaignJob job_out;
  EXPECT_FALSE(DecodeJob(job_blob + "x", &job_out));
  std::vector<scenario::Results> archive_out;
  EXPECT_FALSE(DecodeArchive(EncodeArchive({results_blob}) + "x", &archive_out));
}

TEST(CampaignCodecTest, CountBoundsAreEnforcedPerElementType) {
  // Each container's count is bounded by its element type: a job may carry 4096
  // stations but 65536 flows, and a per-node map 4096 entries. One past a bound is
  // rejected even though every element is present and well-formed.
  const CampaignJob base = SmallManifest(1).jobs[0];
  CampaignJob back;
  CampaignJob stations = base;
  stations.stations.resize(4096, base.stations[0]);
  EXPECT_TRUE(DecodeJob(EncodeJob(stations), &back));
  stations.stations.push_back(base.stations[0]);
  EXPECT_FALSE(DecodeJob(EncodeJob(stations), &back));

  CampaignJob flows = base;
  flows.flows.resize(65536, base.flows[0]);
  EXPECT_TRUE(DecodeJob(EncodeJob(flows), &back));
  flows.flows.push_back(base.flows[0]);
  EXPECT_FALSE(DecodeJob(EncodeJob(flows), &back));

  scenario::Results results;
  scenario::Results results_back;
  for (NodeId node = 1; node <= 4096; ++node) {
    results.goodput_bps[node] = 1.0;
  }
  EXPECT_TRUE(DecodeResults(EncodeResults(results), &results_back));
  results.goodput_bps[4097] = 1.0;
  EXPECT_FALSE(DecodeResults(EncodeResults(results), &results_back));
}

TEST(CampaignCodecTest, MapKeysAndWindowStartsMustAscend) {
  scenario::Results results;
  results.airtime_share = {{3, 0.25}, {5, 0.75}};
  results.rtt_series.window = Ms(10);
  results.rtt_series.windows = {{.start = Ms(0)}, {.start = Ms(10)}};
  results.goodput_series.window = Ms(10);
  results.goodput_series.windows = {{.start = Ms(0)}, {.start = Ms(20)}};
  const std::string blob = EncodeResults(results);
  scenario::Results back;
  ASSERT_TRUE(DecodeResults(blob, &back));
  EXPECT_EQ(back, results);

  // Map keys: magic, goodput map (count 0), airtime count, then (i32 node, f64) pairs.
  constexpr size_t kFirstKey = 12;
  constexpr size_t kSecondKey = kFirstKey + 12;
  ASSERT_EQ(blob[kFirstKey], 3);
  ASSERT_EQ(blob[kSecondKey], 5);
  std::string swapped = blob;
  std::swap(swapped[kFirstKey], swapped[kSecondKey]);
  EXPECT_FALSE(DecodeResults(swapped, &back));
  std::string repeated = blob;
  repeated[kSecondKey] = 3;
  EXPECT_FALSE(DecodeResults(repeated, &back));

  // Window starts: the writer emits whatever it is given, the reader insists on
  // strictly ascending starts in both series types.
  scenario::Results tied = results;
  tied.rtt_series.windows[1].start = Ms(0);
  EXPECT_FALSE(DecodeResults(EncodeResults(tied), &back));
  scenario::Results backwards = results;
  backwards.goodput_series.windows[1].start = -Ms(10);
  EXPECT_FALSE(DecodeResults(EncodeResults(backwards), &back));

  // The check keys on the window types, not on any field named `start`: flows may
  // start in any order.
  CampaignJob job = SmallManifest(1).jobs[0];
  job.flows.push_back(job.flows[0]);
  job.flows[0].start = Ms(50);
  job.flows[1].start = 0;
  CampaignJob job_back;
  ASSERT_TRUE(DecodeJob(EncodeJob(job), &job_back));
  EXPECT_EQ(job_back, job);
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

  // A flipped byte anywhere invalidates the archive (per-blob CRC or trailer).
  for (size_t pos : {size_t{4}, archive.size() / 2, archive.size() - 3}) {
    std::string bad = archive;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    std::vector<scenario::Results> out;
    EXPECT_FALSE(DecodeArchive(bad, &out)) << pos;
  }

  // A well-formed trailer that summarizes other blobs is rejected too: splice job 1's
  // one-job trailer onto job 0's one-job archive (12-byte header, 8-byte frame).
  const std::string first = EncodeArchive({blobs[0]});
  const std::string second = EncodeArchive({blobs[1]});
  const std::string second_trailer = second.substr(20 + blobs[1].size());
  ASSERT_NE(first.substr(20 + blobs[0].size()), second_trailer);
  const std::string spliced = first.substr(0, 20 + blobs[0].size()) + second_trailer;
  std::vector<scenario::Results> out;
  ASSERT_TRUE(DecodeArchive(first, &out));
  EXPECT_FALSE(DecodeArchive(spliced, &out));
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

TEST(CampaignCodecTest, TbrConfigRoundTripsExactly) {
  // Every TbrConfig field set off its default must survive the round trip bit for bit,
  // so a field missing from the codec's field list cannot hide behind a default.
  Manifest manifest = SmallManifest(1);
  CampaignJob job = manifest.jobs[0];
  job.config.qdisc = scenario::QdiscKind::kTbr;
  core::TbrConfig& tbr = job.config.tbr;
  tbr.mode = core::TbrMode::kFastEwma;
  tbr.bucket_depth = Ms(21);
  tbr.initial_tokens = Ms(11);
  tbr.enable_rate_adjust = false;
  tbr.work_conserving_fallback = true;
  tbr.use_retry_info = true;
  tbr.client_agent = true;
  ASSERT_FALSE(tbr == core::TbrConfig{});
  const std::string blob = EncodeJob(job);
  CampaignJob back;
  ASSERT_TRUE(DecodeJob(blob, &back));
  EXPECT_EQ(back, job);
  EXPECT_EQ(EncodeJob(back), blob);
}

// Sets one enum field of `base` to raw value `last`, then `last + 1`: the first must
// round-trip, the second must be rejected (the decoder's range comes from kLast).
template <typename E, typename FieldOf>
void ExpectEnumRangeEndsAt(const CampaignJob& base, FieldOf field_of, uint32_t last) {
  CampaignJob job = base;
  field_of(job) = static_cast<E>(last);
  CampaignJob back;
  ASSERT_TRUE(DecodeJob(EncodeJob(job), &back)) << "raw " << last;
  EXPECT_EQ(back, job);
  field_of(job) = static_cast<E>(last + 1);
  EXPECT_FALSE(DecodeJob(EncodeJob(job), &back)) << "raw " << last + 1;
}

TEST(CampaignCodecTest, EveryWireEnumAcceptsItsLastValueAndRejectsThePast) {
  const CampaignJob base = SmallManifest(1).jobs[0];
  ASSERT_FALSE(base.stations.empty());
  ASSERT_FALSE(base.flows.empty());
  ExpectEnumRangeEndsAt<scenario::QdiscKind>(
      base, [](CampaignJob& j) -> auto& { return j.config.qdisc; },
      static_cast<uint32_t>(scenario::QdiscKind::kLast));
  ExpectEnumRangeEndsAt<core::TbrMode>(
      base, [](CampaignJob& j) -> auto& { return j.config.tbr.mode; },
      static_cast<uint32_t>(core::TbrMode::kLast));
  ExpectEnumRangeEndsAt<phy::WifiRate>(
      base, [](CampaignJob& j) -> auto& { return j.stations[0].rate; },
      phy::kNumWifiRates - 1);
  ExpectEnumRangeEndsAt<scenario::Direction>(
      base, [](CampaignJob& j) -> auto& { return j.flows[0].direction; },
      static_cast<uint32_t>(scenario::Direction::kLast));
  ExpectEnumRangeEndsAt<scenario::Transport>(
      base, [](CampaignJob& j) -> auto& { return j.flows[0].transport; },
      static_cast<uint32_t>(scenario::Transport::kLast));
  ExpectEnumRangeEndsAt<scenario::TrafficModel>(
      base, [](CampaignJob& j) -> auto& { return j.flows[0].model; },
      static_cast<uint32_t>(scenario::TrafficModel::kLast));

  // The raw values of the retired burst-credit and credit-hybrid selectors (TbrMode 2-3,
  // QdiscKind 5-7) are out of range now, not silently remapped.
  CampaignJob job = base;
  CampaignJob back;
  for (const uint32_t raw : {2u, 3u}) {
    job.config.tbr.mode = static_cast<core::TbrMode>(raw);
    EXPECT_FALSE(DecodeJob(EncodeJob(job), &back)) << "TbrMode " << raw;
  }
  job = base;
  for (const uint32_t raw : {5u, 6u, 7u}) {
    job.config.qdisc = static_cast<scenario::QdiscKind>(raw);
    EXPECT_FALSE(DecodeJob(EncodeJob(job), &back)) << "QdiscKind " << raw;
  }
}

TEST(CampaignCodecTest, PreWindowedPayloadMagicsAreRejected) {
  const Manifest manifest = SmallManifest(1);
  // Older job layouts led with "CAJ1".."CAJ4", older Results with "CAR1"; the decoder
  // must reject them outright rather than misparse the old layout.
  const std::string job_blob = EncodeJob(manifest.jobs[0]);
  ASSERT_EQ(job_blob[0], '5');  // Little-endian: byte 0 is the magic's last letter.
  for (const char version : {'1', '2', '3', '4'}) {
    std::string stale = job_blob;
    stale[0] = version;  // "CAJ5" -> "CAJ<version>".
    CampaignJob job_out;
    EXPECT_FALSE(DecodeJob(stale, &job_out)) << "CAJ" << version;
  }

  std::string results_blob =
      EncodeResults(sweep::RunScenarioJob(ToScenarioJob(manifest.jobs[0])));
  ASSERT_EQ(results_blob[0], '3');
  results_blob[0] = '1';  // "CAR3" -> "CAR1".
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

  // A *future* version is indistinguishable from corruption: false, not a throw.
  archive[4] = 4;
  EXPECT_FALSE(DecodeArchive(archive, &out));
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
}

// Virtual memory this process has mapped, in bytes (0 where /proc is unavailable).
size_t MappedBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long pages = 0;
  const int fields = std::fscanf(f, "%lu", &pages);
  std::fclose(f);
  return fields == 1 ? pages * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

TEST(CampaignCodecTest, CountsClaimingHugeContainersDoNotReserveMemory) {
  // Counts that claim far more elements than the bytes left could hold: a 12-byte
  // archive header claiming 2^24 jobs (reserving from the count alone asks for about
  // 11 GB of Results), and a Results blob whose first series claims 2^20 windows
  // (40 MiB). Under an address-space limit such a reserve throws std::bad_alloc; the
  // decoders must return false instead.
  if (SanitizerBuild()) {
    GTEST_SKIP() << "sanitizers map shadow memory that an address-space limit breaks";
  }
  const size_t mapped = MappedBytes();
  if (mapped == 0) {
    GTEST_SKIP() << "no /proc/self/statm";
  }
  std::string archive = EncodeArchive({}).substr(0, 8);  // Magic + version.
  archive += std::string("\x00\x00\x00\x01", 4);       // 2^24 jobs, little-endian.
  ASSERT_EQ(archive.size(), 12u);
  // An empty Results ends with four series of (i64 window, u32 count): keep the first
  // series' window, then claim 2^20 windows.
  const std::string empty = EncodeResults(scenario::Results());
  std::string results_blob = empty.substr(0, empty.size() - 4 * 12 + 8);
  results_blob += std::string("\x00\x00\x10\x00", 4);

  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &saved), 0);
  rlimit tight = saved;
  // Room to run, not to reserve tens of MiB.
  tight.rlim_cur = std::min<rlim_t>(saved.rlim_max, mapped + (size_t{16} << 20));
  ASSERT_EQ(setrlimit(RLIMIT_AS, &tight), 0);
  bool archive_decoded = true;
  bool results_decoded = true;
  bool threw = false;
  try {
    std::vector<scenario::Results> archive_out;
    archive_decoded = DecodeArchive(archive, &archive_out);
    scenario::Results results_out;
    results_decoded = DecodeResults(results_blob, &results_out);
  } catch (...) {
    threw = true;
  }
  ASSERT_EQ(setrlimit(RLIMIT_AS, &saved), 0);
  EXPECT_FALSE(threw);
  EXPECT_FALSE(archive_decoded);
  EXPECT_FALSE(results_decoded);
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

// Every job sent to a worker or run locally ends exactly once: completed, re-queued
// after a failure, or released unstarted by a dropped connection.
void ExpectDispatchBalances(const CoordinatorStats& s) {
  EXPECT_EQ(s.dispatched + s.local_runs, s.completed + s.redispatched + s.released)
      << "dispatched=" << s.dispatched << " local_runs=" << s.local_runs
      << " completed=" << s.completed << " redispatched=" << s.redispatched
      << " released=" << s.released;
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
  std::vector<scenario::Results> decoded;
  ASSERT_TRUE(DecodeArchive(coordinator.EncodeArchiveBytes(), &decoded));
  EXPECT_EQ(decoded.size(), 30u);
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
  ExpectDispatchBalances(stats);
}

// Jobs that run several heartbeat timeouts long: the long-lived heartbeat thread must
// keep each one alive, and must fall silent when its job ends. A late heartbeat for a
// finished job reads as "heartbeat for wrong job": the coordinator drops the worker
// (and re-dispatches whatever it held), so the worker would log a reconnect. With two
// workers and three jobs, each worker's first job goes out alone, and so does the
// third (one pending job is not more than one per worker): whichever worker finishes
// first runs it, and the other idles on "wait" replies through the last job.
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

// FaultPlan seed 3 draws 0.89 for job 0 and 0.45 for job 1, so at probability 0.5 a
// lone worker's one fault lands on job 1: its second job, dealt together with job 2,
// which waits queued behind it when the fault fires.
constexpr uint64_t kSecondJobFaultSeed = 3;

TEST(CampaignServiceTest, CrashWithAQueuedJobReleasesItUnstarted) {
  const Manifest manifest = SmallManifest(12);
  CoordinatorConfig config;
  config.socket_path = TempPath("crashq.sock");
  config.local_fallback_after_ms = -1;
  config.backoff_base_ms = 1;
  WorkerConfig worker = HonestWorker(config.socket_path, "crasher");
  worker.faults.seed = kSecondJobFaultSeed;
  worker.faults.crash = 0.5;
  worker.faults.max_faults = 1;
  CoordinatorStats stats;
  std::vector<WorkerStats> worker_stats;
  const std::string archive = RunCampaign(manifest, config, {worker}, &stats, &worker_stats);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  ASSERT_EQ(worker_stats.size(), 1u);
  EXPECT_EQ(worker_stats[0].faults_injected, 1);
  // The running job used an attempt and is re-dispatched; the queued one comes back
  // unstarted and is dealt again, so the campaign sends two jobs more than it has.
  EXPECT_EQ(stats.worker_disconnects, 1);
  EXPECT_EQ(stats.redispatched, 1);
  EXPECT_EQ(stats.released, 1);
  EXPECT_EQ(stats.dispatched, 12 + 2);
  ExpectDispatchBalances(stats);
}

TEST(CampaignServiceTest, CorruptResultWithAQueuedJobIsRejectedAndReleasesIt) {
  const Manifest manifest = SmallManifest(12);
  CoordinatorConfig config;
  config.socket_path = TempPath("corruptq.sock");
  config.local_fallback_after_ms = -1;
  config.backoff_base_ms = 1;
  WorkerConfig worker = HonestWorker(config.socket_path, "liar");
  worker.faults.seed = kSecondJobFaultSeed;
  worker.faults.corrupt = 0.5;
  worker.faults.max_faults = 1;
  CoordinatorStats stats;
  std::vector<WorkerStats> worker_stats;
  const std::string archive = RunCampaign(manifest, config, {worker}, &stats, &worker_stats);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  ASSERT_EQ(worker_stats.size(), 1u);
  EXPECT_EQ(worker_stats[0].faults_injected, 1);
  EXPECT_EQ(stats.rejected_payloads, 1);
  EXPECT_EQ(stats.redispatched, 1);
  EXPECT_EQ(stats.released, 1);
  EXPECT_EQ(stats.worker_disconnects, 0);
  EXPECT_EQ(stats.dispatched, 12 + 2);
  ExpectDispatchBalances(stats);
}

// A connection's first job goes out alone, so the first worker to connect does not
// take both jobs of a two-job campaign while the second idles. The second worker
// starts once the first holds its first job, which runs for ~0.3 s.
TEST(CampaignServiceTest, FirstJobIsDealtAloneSoEveryWorkerGetsOne) {
  SmokeGridSpec spec;
  spec.jobs = 3;
  spec.seed = 7;
  spec.duration = Sec(3000);  // ~0.3 s of wall time per UDP job in a Release build.
  Manifest manifest = MakeSmokeGrid(spec);
  manifest.jobs.erase(manifest.jobs.begin());  // Job 0 is a TCP job, 4x as slow.
  CoordinatorConfig config;
  config.socket_path = TempPath("first.sock");
  config.local_fallback_after_ms = -1;
  auto coordinator = std::make_unique<Coordinator>(manifest, config);
  WorkerStats first;
  WorkerStats second;
  std::thread w1([&] { first = RunWorker(HonestWorker(config.socket_path, "w1")); });
  std::thread w2([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    second = RunWorker(HonestWorker(config.socket_path, "w2"));
  });
  EXPECT_TRUE(coordinator->Run());
  const CoordinatorStats stats = coordinator->stats();
  const std::string archive = coordinator->EncodeArchiveBytes();
  coordinator.reset();
  w1.join();
  w2.join();
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(first.jobs_run, 1);
  EXPECT_EQ(second.jobs_run, 1);
  ExpectDispatchBalances(stats);
}

// Reads the coordinator's next line, waiting for it; false on EOF or a bad line.
bool ReadMessage(int fd, LineReader* reader, Message* msg) {
  std::string line;
  bool open = true;
  while (!reader->NextLine(&line)) {
    if (!open) {
      return false;
    }
    if (WaitReadable(fd, 1000)) {
      open = reader->Drain(fd);
    }
  }
  return ParseMessage(line, msg);
}

// A job whose send fails never reached the worker: it goes back pending unstarted
// and is not counted as dispatched. A connection that runs a job is dropped at EOF,
// not at the failed send, so a corrupt result the worker wrote before it closed is
// still read and rejected. A hand-played peer makes the send fail on cue: it shuts its read side
// before it asks for the job that would be queued behind its last one.
TEST(CampaignServiceTest, FailedSendReleasesTheJobAndStillReadsThePeer) {
  const Manifest manifest = SmallManifest(10);
  CoordinatorConfig config;
  config.socket_path = TempPath("sendfail.sock");
  config.local_fallback_after_ms = -1;
  config.backoff_base_ms = 1;
  auto coordinator = std::make_unique<Coordinator>(manifest, config);
  auto result_line = [&manifest](int64_t job, bool corrupt) {
    const std::string blob =
        EncodeResults(sweep::RunScenarioJob(ToScenarioJob(manifest.jobs[job])));
    Message result;
    result.type = "result";
    result.job = job;
    result.len = static_cast<int64_t>(blob.size());
    result.crc = static_cast<int64_t>(Crc32(blob) ^ (corrupt ? 1u : 0u));
    result.data = HexEncode(blob);
    return FormatMessage(result);
  };
  Message request_msg;
  request_msg.type = "request";
  const std::string request = FormatMessage(request_msg);
  std::vector<int64_t> peer_jobs;
  std::thread peers([&] {
    int fd = -1;
    for (int i = 0; i < 1000 && (fd = ConnectUnix(config.socket_path)) < 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (fd < 0) {
      return;
    }
    Message hello;
    hello.type = "hello";
    hello.protocol = kProtocolVersion;
    LineReader reader;
    Message msg;
    // The first job comes alone, the next two in one write: one runs, one is queued.
    SendLine(fd, FormatMessage(hello) + "\n" + request);
    for (int i = 0; i < 3 && ReadMessage(fd, &reader, &msg) && msg.type == "job"; ++i) {
      peer_jobs.push_back(msg.job);
      if (i == 0) {
        SendLine(fd, result_line(msg.job, false) + "\n" + request);
      }
    }
    if (peer_jobs.size() == 3) {
      // The result promotes the queued job, the request asks for one to queue behind
      // it - a send to a peer that reads no more - and the corrupt result follows.
      ::shutdown(fd, SHUT_RD);
      SendLine(fd, result_line(peer_jobs[1], false) + "\n" + request + "\n" +
                       result_line(peer_jobs[2], true));
    }
    ::close(fd);
    RunWorker(HonestWorker(config.socket_path, "honest"));
  });
  EXPECT_TRUE(coordinator->Run());
  const CoordinatorStats stats = coordinator->stats();
  const std::string archive = coordinator->EncodeArchiveBytes();
  coordinator.reset();
  peers.join();
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(peer_jobs, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(stats.rejected_payloads, 1);
  EXPECT_EQ(stats.redispatched, 1);  // The corrupt job; the failed send is none.
  EXPECT_EQ(stats.released, 0);
  EXPECT_EQ(stats.worker_disconnects, 0);
  EXPECT_EQ(stats.dispatched, 10 + 1);
  ExpectDispatchBalances(stats);
}

// With no running job, nothing a peer sends after a failed send can be merged, so the
// connection goes at once: a peer that shut only its read side and stays connected
// must not hold the campaign up, counted as a worker that never gets a deadline. The
// hand-played peer's first request is the failed send; it then waits for the
// coordinator to hang up before it closes, and an honest worker runs the campaign.
TEST(CampaignServiceTest, FailedSendWithNoRunningJobDropsThePeerAtOnce) {
  const Manifest manifest = SmallManifest(4);
  CoordinatorConfig config;
  config.socket_path = TempPath("sendfail_idle.sock");
  config.local_fallback_after_ms = -1;
  config.backoff_base_ms = 1;
  auto coordinator = std::make_unique<Coordinator>(manifest, config);
  bool hung_up = false;
  std::thread peers([&] {
    int fd = -1;
    for (int i = 0; i < 1000 && (fd = ConnectUnix(config.socket_path)) < 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (fd < 0) {
      return;
    }
    Message hello;
    hello.type = "hello";
    hello.protocol = kProtocolVersion;
    Message request;
    request.type = "request";
    ::shutdown(fd, SHUT_RD);
    SendLine(fd, FormatMessage(hello) + "\n" + FormatMessage(request));
    // Polled for no event, the socket reports only a hang-up: the coordinator closed
    // its end. A connection kept open waits out the whole 10 s.
    pollfd pfd{fd, 0, 0};
    hung_up = ::poll(&pfd, 1, 10000) == 1 && (pfd.revents & POLLHUP) != 0;
    ::close(fd);
    RunWorker(HonestWorker(config.socket_path, "honest"));
  });
  EXPECT_TRUE(coordinator->Run());
  const CoordinatorStats stats = coordinator->stats();
  const std::string archive = coordinator->EncodeArchiveBytes();
  coordinator.reset();
  peers.join();
  EXPECT_TRUE(hung_up);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(stats.dispatched, 4);  // The failed send is not counted.
  EXPECT_EQ(stats.released, 0);
  EXPECT_EQ(stats.redispatched, 0);
  EXPECT_EQ(stats.worker_disconnects, 0);
  ExpectDispatchBalances(stats);
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
  // One fault of one kind, on the adversary's first job, so every failure mode fires
  // in every run: the random workers alone can draw hangs and no crash.
  auto adversary = [&](const char* name, double FaultPlan::*fault) {
    WorkerConfig wc = HonestWorker(config.socket_path, name);
    wc.faults.*fault = 1.0;
    wc.faults.max_faults = 1;
    return wc;
  };

  CoordinatorStats stats;
  const std::string archive =
      RunCampaign(manifest, config,
                  {faulty("f1", 101), faulty("f2", 202),
                   adversary("crash", &FaultPlan::crash),
                   adversary("hang", &FaultPlan::hang),
                   adversary("corrupt", &FaultPlan::corrupt),
                   HonestWorker(config.socket_path, "honest")},
                  &stats);
  EXPECT_EQ(archive, RunSerialArchive(manifest));
  EXPECT_EQ(stats.completed, 1000);
  // Every failure mode must actually have been exercised and survived.
  EXPECT_GT(stats.rejected_payloads, 0) << "no corrupt/truncated payloads seen";
  EXPECT_GT(stats.worker_disconnects, 0) << "no crashes seen";
  EXPECT_GT(stats.heartbeat_timeouts, 0) << "no hangs seen";
  EXPECT_GT(stats.redispatched, 0);
  ExpectDispatchBalances(stats);
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

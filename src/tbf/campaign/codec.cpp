#include "tbf/campaign/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstring>
#include <map>
#include <type_traits>

#include "tbf/util/logging.h"

namespace tbf::campaign {
namespace {

// Codec versions; this is the only place that quotes them. v2: jobs carry the
// StatsConfig, FlowResults the `exact` flag, Results the windowed meter series. v3:
// TbrConfig grew the scheduler fields, QdiscKind the adaptive TBR kinds, and Results
// the windowed goodput series. v4 (jobs only): the retired burst-credit and
// credit-hybrid modes lost their TbrConfig fields and QdiscKind kinds, TbrConfig lost
// its copy of the per-client queue limit, and TbrMode::kFastEwma became 1. v5 (jobs
// only): the scenario values no workload set became constants and left the wire:
// TbrConfig keeps 7 fields (its periods, thresholds, repair and contention settings
// went), and ScenarioConfig lost the AP queue limits, the MAC timings and the wired hop.
// Since v3, Results and archive bytes have not changed, so they stay "CAR3" and archive
// version 3. Old-format payloads must not half-decode, so the payload magics are bumped;
// a completion log of an older job layout fails its manifest's fingerprint instead
// (docs/campaign.md). The archive keeps its magic and bumps its version field, which is
// what lets DecodeArchive diagnose a stale archive by name (codec.h).
constexpr uint32_t kJobMagic = 0x43414a35;      // "CAJ5"
constexpr uint32_t kResultsMagic = 0x43415233;  // "CAR3"
constexpr uint32_t kArchiveMagic = 0x54424641;  // "TBFA"
constexpr uint32_t kArchiveVersion = 3;

// Containers the decoders will allocate for, bounded per element type: generous for
// real campaigns, small enough that a corrupt count fails fast instead of OOMing the
// coordinator. A vector of an element type without a bound does not compile.
template <typename T>
constexpr uint32_t kMaxCount = 0;
template <>
constexpr uint32_t kMaxCount<scenario::StationSpec> = 4096;
template <>
constexpr uint32_t kMaxCount<scenario::FlowSpec> = 65536;
template <>
constexpr uint32_t kMaxCount<scenario::FlowResult> = 65536;
template <>
constexpr uint32_t kMaxCount<trace::ReplayTask> = 1u << 22;
template <>
constexpr uint32_t kMaxCount<TimeNs> = 1u << 22;  // Task completions and durations.
template <>
constexpr uint32_t kMaxCount<stats::WindowStat> = 1u << 20;
template <>
constexpr uint32_t kMaxCount<stats::ByteWindow> = 1u << 20;
constexpr uint32_t kMaxNodeMapEntries = 4096;  // One entry per station.
constexpr uint32_t kMaxArchiveJobs = 1u << 24;

// Largest raw value of a wire enum. Wire enums are contiguous from 0 and end in a kLast
// alias; WifiRate counts its rungs instead.
template <typename E>
constexpr uint32_t kEnumMax = static_cast<uint32_t>(E::kLast);
template <>
constexpr uint32_t kEnumMax<phy::WifiRate> = phy::kNumWifiRates - 1;

// Sealed windows travel strictly ascending by start; the decoder enforces it.
template <typename T>
constexpr bool kAscendingStart =
    std::is_same_v<T, stats::WindowStat> || std::is_same_v<T, stats::ByteWindow>;

// ---------------------------------------------------------------------------
// Byte streams. Both take a field list through operator(): the writer appends each
// field, the reader fills it in. The reader latches failure: once any read overruns or
// fails validation, every later read fails too, so a decoder checks ok() once at the
// end.
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (Write(fields), ...);
  }

  std::string& str() { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename U>
  void Fixed(U v) {
    char bytes[sizeof(U)];
    for (size_t i = 0; i < sizeof(U); ++i) {
      bytes[i] = static_cast<char>(v >> (8 * i));
    }
    out_.append(bytes, sizeof(U));
  }

  template <typename T>
  void Write(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      Fixed<uint8_t>(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      Fixed(static_cast<uint32_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      Fixed(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      Fixed(std::bit_cast<uint64_t>(v));
    } else {
      Fields(*this, v);
    }
  }
  template <typename T>
  void Write(const std::vector<T>& v) {
    Fixed(static_cast<uint32_t>(v.size()));
    for (const T& element : v) {
      Write(element);
    }
  }
  void Write(const std::map<NodeId, double>& m) {
    Fixed(static_cast<uint32_t>(m.size()));
    for (const auto& [node, value] : m) {  // std::map iterates sorted: deterministic.
      Write(node);
      Write(value);
    }
  }
  void Write(const stats::QuantileSketch& sketch) { sketch.SerializeTo(&out_); }

  std::string out_;
};

// Wire size of a default T, the smallest any T encodes to (its containers are empty).
// A count can claim at most remaining / MinWireBytes<T>() real elements.
template <typename T>
size_t MinWireBytes() {
  static const size_t bytes = [] {
    ByteWriter w;
    w(T());  // Not T{}: aggregate init would hit the sketches' explicit ctors.
    return w.str().size();
  }();
  return bytes;
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (Read(fields), ...);
  }

  // Container length, bounded so a corrupt count cannot drive a multi-GB resize.
  uint32_t Count(uint32_t max) {
    const uint32_t v = Fixed<uint32_t>();
    if (v > max) {
      ok_ = false;
      return 0;
    }
    return v;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  std::string_view remaining() const { return data_.substr(pos_); }
  void Advance(size_t n) {
    if (Need(n)) {
      pos_ += n;
    }
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename U>
  U Fixed() {
    if (!Need(sizeof(U))) {
      return 0;
    }
    U v = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>(static_cast<unsigned char>(data_[pos_ + i]))
                          << (8 * i));
    }
    pos_ += sizeof(U);
    return v;
  }

  template <typename T>
  void Read(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      const uint8_t raw = Fixed<uint8_t>();
      ok_ = ok_ && raw <= 1;
      v = raw == 1;
    } else if constexpr (std::is_enum_v<T>) {
      const uint32_t raw = Fixed<uint32_t>();
      ok_ = ok_ && raw <= kEnumMax<T>;
      v = ok_ ? static_cast<T>(raw) : T{};
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(Fixed<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(Fixed<uint64_t>());
    } else {
      Fields(*this, v);
    }
  }
  template <typename T>
  void Read(std::vector<T>& v) {
    static_assert(kMaxCount<T> > 0, "wire vectors need a count bound");
    const uint32_t n = Count(kMaxCount<T>);
    v.reserve(std::min<size_t>(n, (data_.size() - pos_) / MinWireBytes<T>()));
    for (uint32_t i = 0; i < n && ok_; ++i) {
      Read(v.emplace_back());
      if constexpr (kAscendingStart<T>) {
        ok_ = ok_ && (i == 0 || v[i].start > v[i - 1].start);
      }
    }
  }
  void Read(std::map<NodeId, double>& m) {
    const uint32_t n = Count(kMaxNodeMapEntries);
    for (uint32_t i = 0; i < n && ok_; ++i) {
      NodeId node = 0;
      double value = 0.0;
      Read(node);
      Read(value);
      // Strictly ascending keys: the canonical (std::map) order the writer emits.
      ok_ = ok_ && (m.empty() || node > m.rbegin()->first);
      if (ok_) {
        m.emplace_hint(m.end(), node, value);
      }
    }
  }
  void Read(stats::QuantileSketch& sketch) {
    // The sketch parses from the reader's current position; splice its cursor back.
    size_t pos = 0;
    ok_ = ok_ && stats::QuantileSketch::DeserializeFrom(remaining(), &pos, &sketch);
    pos_ += ok_ ? pos : 0;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Field lists: each wire struct names its fields once, in wire order. S is T when
// decoding and const T when encoding, so one list drives both directions.
// ---------------------------------------------------------------------------

template <typename S, typename T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

template <typename IO, Of<core::TbrConfig> S>
void Fields(IO& io, S& c) {
  io(c.mode, c.bucket_depth, c.initial_tokens, c.enable_rate_adjust,
     c.work_conserving_fallback, c.use_retry_info, c.client_agent);
}

template <typename IO, Of<stats::StatsConfig> S>
void Fields(IO& io, S& c) {
  io(c.window, c.top_k, c.sample_every, c.sample_seed);
}

template <typename IO, Of<scenario::ScenarioConfig> S>
void Fields(IO& io, S& c) {
  io(c.qdisc, c.tbr, c.seed, c.warmup, c.duration, c.stats);
}

template <typename IO, Of<scenario::StationSpec> S>
void Fields(IO& io, S& s) {
  io(s.id, s.rate, s.per, s.arf, s.snr_db, s.queue_limit);
}

template <typename IO, Of<trace::OnOffSampler> S>
void Fields(IO& io, S& o) {
  io(o.mean_flow_bytes, o.pareto_alpha, o.mean_think_sec);
}

template <typename IO, Of<trace::ReplayTask> S>
void Fields(IO& io, S& t) {
  io(t.at, t.bytes);
}

template <typename IO, Of<scenario::FlowSpec> S>
void Fields(IO& io, S& f) {
  io(f.client, f.direction, f.transport, f.model, f.task_bytes, f.task_count, f.task_gap,
     f.onoff, f.replay, f.app_limit_bps, f.udp_rate, f.packet_bytes, f.start);
}

template <typename IO, Of<CampaignJob> S>
void Fields(IO& io, S& job) {
  io(job.config, job.stations, job.flows);
}

template <typename IO, Of<scenario::LatencySummary> S>
void Fields(IO& io, S& s) {
  io(s.count, s.p50, s.p95, s.p99);
}

template <typename IO, Of<scenario::FlowResult> S>
void Fields(IO& io, S& f) {
  io(f.flow_id, f.client, f.tcp, f.bytes_delivered, f.goodput_bps, f.completion_time,
     f.task_completions, f.task_durations, f.retransmits, f.timeouts, f.rtt,
     f.queue_delay, f.task_latency, f.exact);
}

template <typename IO, Of<stats::WindowStat> S>
void Fields(IO& io, S& w) {
  io(w.start, w.count, w.p50, w.p95, w.p99);
}

template <typename IO, Of<stats::MeterSeries> S>
void Fields(IO& io, S& s) {
  io(s.window, s.windows);
}

template <typename IO, Of<stats::ByteWindow> S>
void Fields(IO& io, S& w) {
  io(w.start, w.count, w.bytes);
}

template <typename IO, Of<stats::ByteSeries> S>
void Fields(IO& io, S& s) {
  io(s.window, s.windows);
}

template <typename IO, Of<scenario::Results> S>
void Fields(IO& io, S& r) {
  io(r.goodput_bps, r.airtime_share, r.aggregate_bps, r.utilization, r.flows,
     r.avg_task_time_sec, r.final_task_time_sec, r.tasks_completed, r.mac_collisions,
     r.mac_exchanges, r.ap_drops, r.rtt, r.ap_queue_delay, r.task_latency, r.rtt_sketch,
     r.ap_queue_delay_sketch, r.task_latency_sketch, r.rtt_series,
     r.ap_queue_delay_series, r.task_latency_series, r.goodput_series);
}

// The archive trailer, recomputed identically by every path that builds an archive.
struct MergedSummary {
  int64_t jobs = 0;
  int64_t tasks_completed = 0;
  int64_t mac_exchanges = 0;
  double aggregate_bps_sum = 0.0;
  stats::QuantileSketch rtt;
  stats::QuantileSketch ap_queue_delay;
  stats::QuantileSketch task_latency;

  friend bool operator==(const MergedSummary&, const MergedSummary&) = default;
};

template <typename IO, Of<MergedSummary> S>
void Fields(IO& io, S& m) {
  io(m.jobs, m.tasks_completed, m.mac_exchanges, m.aggregate_bps_sum, m.rtt,
     m.ap_queue_delay, m.task_latency);
}

// A payload blob: magic, then the value's fields.
template <typename T>
std::string EncodeBlob(uint32_t magic, const T& value) {
  ByteWriter w;
  w(magic, value);
  return w.Take();
}

// Decodes a whole blob or nothing: `*out` is written only when every byte parsed.
template <typename T>
bool DecodeBlob(std::string_view data, uint32_t magic, T* out) {
  ByteReader r(data);
  uint32_t found = 0;
  r(found);
  if (found != magic) {
    return false;
  }
  T value;
  r(value);
  if (!r.AtEnd()) {
    return false;
  }
  *out = std::move(value);
  return true;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  // Slicing-by-8 over the reflected IEEE polynomial: tables[0] is the classic bytewise
  // table, and tables[k][b] advances tables[k-1][b] by one more zero byte, so one
  // lookup per byte of an 8-byte block folds the whole block into the register.
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    const uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 | uint32_t{p[6]} << 16 |
                        uint32_t{p[7]} << 24;
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = tables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string HexEncode(std::string_view bytes) {
  // kPairs[b] is the two digits of byte b, so each byte is one 2-byte copy.
  static const auto kPairs = [] {
    constexpr char kDigits[] = "0123456789abcdef";
    std::array<std::array<char, 2>, 256> t{};
    for (size_t b = 0; b < 256; ++b) {
      t[b] = {kDigits[b >> 4], kDigits[b & 0xf]};
    }
    return t;
  }();
  std::string out(bytes.size() * 2, '\0');
  char* dst = out.data();
  for (const char ch : bytes) {
    std::memcpy(dst, kPairs[static_cast<unsigned char>(ch)].data(), 2);
    dst += 2;
  }
  return out;
}

bool HexDecode(std::string_view hex, std::string* out) {
  if (hex.size() % 2 != 0) {
    return false;
  }
  // kNibble maps a lowercase hex digit to its value and every other byte to 0xff;
  // OR-ing all nibbles together flags any bad digit with one test at the end.
  static const auto kNibble = [] {
    std::array<uint8_t, 256> t{};
    t.fill(0xff);
    for (int c = 0; c < 10; ++c) {
      t['0' + c] = static_cast<uint8_t>(c);
    }
    for (int c = 0; c < 6; ++c) {
      t['a' + c] = static_cast<uint8_t>(10 + c);
    }
    return t;
  }();
  out->resize(hex.size() / 2);
  const auto* src = reinterpret_cast<const unsigned char*>(hex.data());
  char* dst = out->data();
  uint8_t bad = 0;
  for (size_t i = 0; i < out->size(); ++i) {
    const uint8_t hi = kNibble[src[2 * i]];
    const uint8_t lo = kNibble[src[2 * i + 1]];
    bad |= hi | lo;
    dst[i] = static_cast<char>((hi << 4) | lo);
  }
  return (bad & 0xf0) == 0;
}

std::string EncodeJob(const CampaignJob& job) { return EncodeBlob(kJobMagic, job); }

bool DecodeJob(std::string_view data, CampaignJob* out) {
  return DecodeBlob(data, kJobMagic, out);
}

std::string EncodeResults(const scenario::Results& results) {
  return EncodeBlob(kResultsMagic, results);
}

bool DecodeResults(std::string_view data, scenario::Results* out) {
  return DecodeBlob(data, kResultsMagic, out);
}

namespace {

// Folds one job into the trailer. Every path folds in manifest order, so the sums and
// sketch merges run in one fixed sequence and the trailer bytes are deterministic.
void FoldInto(MergedSummary* merged, const scenario::Results& r) {
  ++merged->jobs;
  merged->tasks_completed += r.tasks_completed;
  merged->mac_exchanges += r.mac_exchanges;
  merged->aggregate_bps_sum += r.aggregate_bps;
  merged->rtt.Merge(r.rtt_sketch);
  merged->ap_queue_delay.Merge(r.ap_queue_delay_sketch);
  merged->task_latency.Merge(r.task_latency_sketch);
}

}  // namespace

std::string EncodeArchive(const std::vector<std::string>& result_blobs) {
  // One decoded Results is live at a time: each blob is validated and folded into
  // the trailer as soon as it decodes.
  MergedSummary merged;
  size_t body_bytes = 0;
  for (const std::string& blob : result_blobs) {
    scenario::Results r;
    TBF_CHECK(DecodeResults(blob, &r)) << "archive built from an invalid Results blob";
    FoldInto(&merged, r);
    body_bytes += 8 + blob.size();
  }
  ByteWriter trailer;
  trailer(merged);

  ByteWriter w;
  w.str().reserve(12 + body_bytes + trailer.str().size());
  w(kArchiveMagic, kArchiveVersion, static_cast<uint32_t>(result_blobs.size()));
  for (const std::string& blob : result_blobs) {
    w(static_cast<uint32_t>(blob.size()), Crc32(blob));
    w.str() += blob;
  }
  w.str() += trailer.str();
  return w.Take();
}

bool DecodeArchive(std::string_view data, std::vector<scenario::Results>* out) {
  ByteReader r(data);
  uint32_t magic = 0;
  uint32_t version = 0;
  r(magic);
  if (magic != kArchiveMagic) {
    return false;
  }
  r(version);
  if (r.ok() && version < kArchiveVersion) {
    // A well-framed archive from an older codec is a stale artifact, not corruption:
    // name the version so the user knows to regenerate it.
    throw CampaignError("campaign archive version " + std::to_string(version) +
                        " predates the windowed stats format (current version " +
                        std::to_string(kArchiveVersion) + "); re-run the campaign");
  }
  if (!r.ok() || version != kArchiveVersion) {
    return false;
  }
  const uint32_t jobs = r.Count(kMaxArchiveJobs);
  // Each job frame is a length, a CRC, and at least a magic and an empty Results.
  const size_t min_frame = 12 + MinWireBytes<scenario::Results>();
  std::vector<scenario::Results> results;
  results.reserve(std::min<size_t>(jobs, r.remaining().size() / min_frame));
  MergedSummary folded;
  for (uint32_t i = 0; i < jobs && r.ok(); ++i) {
    uint32_t len = 0;
    uint32_t crc = 0;
    r(len, crc);
    if (!r.ok() || r.remaining().size() < len) {
      return false;
    }
    const std::string_view blob = r.remaining().substr(0, len);
    if (Crc32(blob) != crc) {
      return false;
    }
    scenario::Results decoded;
    if (!DecodeResults(blob, &decoded)) {
      return false;
    }
    FoldInto(&folded, decoded);
    results.push_back(std::move(decoded));
    r.Advance(len);
  }
  MergedSummary merged;
  r(merged);
  if (!r.AtEnd()) {
    return false;
  }
  if (merged != folded) {
    return false;  // Trailer must agree with the blobs it summarizes.
  }
  *out = std::move(results);
  return true;
}

}  // namespace tbf::campaign

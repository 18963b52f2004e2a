#include "tbf/campaign/codec.h"

#include <array>
#include <bit>
#include <cstring>

#include "tbf/util/logging.h"

namespace tbf::campaign {
namespace {

// ---------------------------------------------------------------------------
// Primitive byte stream. The reader latches failure: once any read overruns or
// fails validation, every subsequent read reports failure too, so decoders can
// chain reads and check ok() once per structure.
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  std::string& str() { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (!Need(4)) {
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  bool Bool() {
    const uint8_t v = U8();
    if (v > 1) {
      ok_ = false;
    }
    return v == 1;
  }
  // Container length, bounded so a corrupt count cannot drive a multi-GB resize.
  uint32_t Count(uint32_t max) {
    const uint32_t v = U32();
    if (v > max) {
      ok_ = false;
      return 0;
    }
    return v;
  }

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
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

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Containers the decoders will allocate for: generous for real campaigns, small
// enough that a corrupt count fails fast instead of OOMing the coordinator.
constexpr uint32_t kMaxStations = 4096;
constexpr uint32_t kMaxFlows = 65536;
constexpr uint32_t kMaxTasks = 1u << 22;
constexpr uint32_t kMaxArchiveJobs = 1u << 24;
constexpr uint32_t kMaxWindows = 1u << 20;

// v2: jobs carry StatsConfig, FlowResults the `exact` flag, Results the windowed
// meter series. v3: TbrConfig grew the scheduler-family fields (mode, burst_credit,
// demand_*, hybrid_debt_cap, contention_contenders), QdiscKind the three adaptive TBR
// kinds, and Results the windowed goodput series. Old-format payloads must not
// half-decode, so the payload magics are bumped; the archive keeps its magic and bumps
// its version field instead, which is what lets DecodeArchive diagnose a stale archive
// by name (codec.h).
constexpr uint32_t kJobMagic = 0x43414a33;      // "CAJ3"
constexpr uint32_t kResultsMagic = 0x43415233;  // "CAR3"
constexpr uint32_t kArchiveMagic = 0x54424641;  // "TBFA"
constexpr uint32_t kArchiveVersion = 3;

// ---------------------------------------------------------------------------
// Enum codecs with range validation.
// ---------------------------------------------------------------------------

template <typename E>
void PutEnum(ByteWriter& w, E value) {
  w.U32(static_cast<uint32_t>(value));
}

template <typename E>
E GetEnum(ByteReader& r, uint32_t max_inclusive, bool* ok) {
  const uint32_t raw = r.U32();
  if (raw > max_inclusive) {
    *ok = false;
    return static_cast<E>(0);
  }
  return static_cast<E>(raw);
}

// ---------------------------------------------------------------------------
// Spec codecs.
// ---------------------------------------------------------------------------

void PutTimings(ByteWriter& w, const phy::MacTimings& t) {
  w.I64(t.slot);
  w.I64(t.sifs);
  w.I32(t.cw_min);
  w.I32(t.cw_max);
  w.I32(t.retry_limit);
}

phy::MacTimings GetTimings(ByteReader& r) {
  phy::MacTimings t;
  t.slot = r.I64();
  t.sifs = r.I64();
  t.cw_min = r.I32();
  t.cw_max = r.I32();
  t.retry_limit = r.I32();
  return t;
}

void PutTbr(ByteWriter& w, const core::TbrConfig& c) {
  PutEnum(w, c.mode);
  w.I64(c.burst_credit);
  w.I64(c.demand_period);
  w.F64(c.demand_alpha);
  w.F64(c.demand_active_threshold);
  w.I64(c.hybrid_debt_cap);
  w.I32(c.contention_contenders);
  w.I64(c.fill_period);
  w.I64(c.bucket_depth);
  w.I64(c.initial_tokens);
  w.Bool(c.enable_rate_adjust);
  w.I64(c.adjust_period);
  w.F64(c.adjust_threshold);
  w.F64(c.usage_ewma_alpha);
  w.F64(c.saturation_guard);
  w.F64(c.min_rate);
  w.Bool(c.maxmin_repair);
  w.F64(c.repair_step);
  w.Bool(c.work_conserving_fallback);
  w.Bool(c.use_retry_info);
  w.Bool(c.charge_contention_overhead);
  w.U64(c.per_queue_limit);
  w.Bool(c.client_agent);
}

core::TbrConfig GetTbr(ByteReader& r, bool* ok) {
  core::TbrConfig c;
  c.mode = GetEnum<core::TbrMode>(r, 3, ok);
  c.burst_credit = r.I64();
  c.demand_period = r.I64();
  c.demand_alpha = r.F64();
  c.demand_active_threshold = r.F64();
  c.hybrid_debt_cap = r.I64();
  c.contention_contenders = r.I32();
  c.fill_period = r.I64();
  c.bucket_depth = r.I64();
  c.initial_tokens = r.I64();
  c.enable_rate_adjust = r.Bool();
  c.adjust_period = r.I64();
  c.adjust_threshold = r.F64();
  c.usage_ewma_alpha = r.F64();
  c.saturation_guard = r.F64();
  c.min_rate = r.F64();
  c.maxmin_repair = r.Bool();
  c.repair_step = r.F64();
  c.work_conserving_fallback = r.Bool();
  c.use_retry_info = r.Bool();
  c.charge_contention_overhead = r.Bool();
  c.per_queue_limit = static_cast<size_t>(r.U64());
  c.client_agent = r.Bool();
  return c;
}

void PutStation(ByteWriter& w, const scenario::StationSpec& s) {
  w.I32(s.id);
  PutEnum(w, s.rate);
  w.F64(s.per);
  w.Bool(s.arf);
  w.F64(s.snr_db);
  w.U64(s.queue_limit);
}

scenario::StationSpec GetStation(ByteReader& r, bool* ok) {
  scenario::StationSpec s;
  s.id = r.I32();
  s.rate = GetEnum<phy::WifiRate>(r, phy::kNumWifiRates - 1, ok);
  s.per = r.F64();
  s.arf = r.Bool();
  s.snr_db = r.F64();
  s.queue_limit = static_cast<size_t>(r.U64());
  return s;
}

void PutFlow(ByteWriter& w, const scenario::FlowSpec& f) {
  w.I32(f.client);
  PutEnum(w, f.direction);
  PutEnum(w, f.transport);
  PutEnum(w, f.model);
  w.I64(f.task_bytes);
  w.I32(f.task_count);
  w.I64(f.task_gap);
  w.F64(f.onoff.mean_flow_bytes);
  w.F64(f.onoff.pareto_alpha);
  w.F64(f.onoff.mean_think_sec);
  w.U32(static_cast<uint32_t>(f.replay.size()));
  for (const trace::ReplayTask& task : f.replay) {
    w.I64(task.at);
    w.I64(task.bytes);
  }
  w.I64(f.app_limit_bps);
  w.I64(f.udp_rate);
  w.I32(f.packet_bytes);
  w.I64(f.start);
}

scenario::FlowSpec GetFlow(ByteReader& r, bool* ok) {
  scenario::FlowSpec f;
  f.client = r.I32();
  f.direction = GetEnum<scenario::Direction>(r, 1, ok);
  f.transport = GetEnum<scenario::Transport>(r, 1, ok);
  f.model = GetEnum<scenario::TrafficModel>(r, 3, ok);
  f.task_bytes = r.I64();
  f.task_count = r.I32();
  f.task_gap = r.I64();
  f.onoff.mean_flow_bytes = r.F64();
  f.onoff.pareto_alpha = r.F64();
  f.onoff.mean_think_sec = r.F64();
  const uint32_t tasks = r.Count(kMaxTasks);
  f.replay.reserve(tasks);
  for (uint32_t i = 0; i < tasks && r.ok(); ++i) {
    trace::ReplayTask task;
    task.at = r.I64();
    task.bytes = r.I64();
    f.replay.push_back(task);
  }
  f.app_limit_bps = r.I64();
  f.udp_rate = r.I64();
  f.packet_bytes = r.I32();
  f.start = r.I64();
  return f;
}

void PutConfig(ByteWriter& w, const scenario::ScenarioConfig& c) {
  PutEnum(w, c.qdisc);
  PutTbr(w, c.tbr);
  w.U64(c.fifo_limit);
  w.U64(c.per_queue_limit);
  PutTimings(w, c.timings);
  w.U64(c.seed);
  w.I64(c.wired_rate);
  w.I64(c.wired_delay);
  w.I64(c.warmup);
  w.I64(c.duration);
  w.I64(c.stats.window);
  w.I32(c.stats.top_k);
  w.I32(c.stats.sample_every);
  w.U64(c.stats.sample_seed);
}

scenario::ScenarioConfig GetConfig(ByteReader& r, bool* ok) {
  scenario::ScenarioConfig c;
  c.qdisc = GetEnum<scenario::QdiscKind>(r, 7, ok);
  c.tbr = GetTbr(r, ok);
  c.fifo_limit = static_cast<size_t>(r.U64());
  c.per_queue_limit = static_cast<size_t>(r.U64());
  c.timings = GetTimings(r);
  c.seed = r.U64();
  c.wired_rate = r.I64();
  c.wired_delay = r.I64();
  c.warmup = r.I64();
  c.duration = r.I64();
  c.stats.window = r.I64();
  c.stats.top_k = r.I32();
  c.stats.sample_every = r.I32();
  c.stats.sample_seed = r.U64();
  return c;
}

// ---------------------------------------------------------------------------
// Results codecs.
// ---------------------------------------------------------------------------

void PutSummary(ByteWriter& w, const scenario::LatencySummary& s) {
  w.I64(s.count);
  w.I64(s.p50);
  w.I64(s.p95);
  w.I64(s.p99);
}

scenario::LatencySummary GetSummary(ByteReader& r) {
  scenario::LatencySummary s;
  s.count = r.I64();
  s.p50 = r.I64();
  s.p95 = r.I64();
  s.p99 = r.I64();
  return s;
}

void PutSketch(ByteWriter& w, const stats::QuantileSketch& sketch) {
  sketch.SerializeTo(&w.str());
}

bool GetSketch(ByteReader& r, stats::QuantileSketch* out) {
  // The sketch parses from the reader's current position; splice its cursor back.
  size_t pos = 0;
  if (!r.ok() || !stats::QuantileSketch::DeserializeFrom(r.remaining(), &pos, out)) {
    return false;
  }
  r.Advance(pos);
  return true;
}

void PutNodeDoubleMap(ByteWriter& w, const std::map<NodeId, double>& m) {
  w.U32(static_cast<uint32_t>(m.size()));
  for (const auto& [node, value] : m) {  // std::map iterates sorted: deterministic.
    w.I32(node);
    w.F64(value);
  }
}

bool GetNodeDoubleMap(ByteReader& r, std::map<NodeId, double>* out) {
  const uint32_t n = r.Count(kMaxStations);
  NodeId prev = kInvalidNodeId;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    const NodeId node = r.I32();
    const double value = r.F64();
    if (i > 0 && node <= prev) {
      return false;  // Must be strictly ascending (canonical map order).
    }
    prev = node;
    (*out)[node] = value;
  }
  return r.ok();
}

void PutTimes(ByteWriter& w, const std::vector<TimeNs>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (TimeNs t : v) {
    w.I64(t);
  }
}

bool GetTimes(ByteReader& r, std::vector<TimeNs>* out) {
  const uint32_t n = r.Count(kMaxTasks);
  out->reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    out->push_back(r.I64());
  }
  return r.ok();
}

void PutFlowResult(ByteWriter& w, const scenario::FlowResult& f) {
  w.I32(f.flow_id);
  w.I32(f.client);
  w.Bool(f.tcp);
  w.I64(f.bytes_delivered);
  w.F64(f.goodput_bps);
  w.I64(f.completion_time);
  PutTimes(w, f.task_completions);
  PutTimes(w, f.task_durations);
  w.I64(f.retransmits);
  w.I64(f.timeouts);
  PutSummary(w, f.rtt);
  PutSummary(w, f.queue_delay);
  PutSummary(w, f.task_latency);
  w.Bool(f.exact);
}

bool GetFlowResult(ByteReader& r, scenario::FlowResult* f) {
  f->flow_id = r.I32();
  f->client = r.I32();
  f->tcp = r.Bool();
  f->bytes_delivered = r.I64();
  f->goodput_bps = r.F64();
  f->completion_time = r.I64();
  if (!GetTimes(r, &f->task_completions) || !GetTimes(r, &f->task_durations)) {
    return false;
  }
  f->retransmits = r.I64();
  f->timeouts = r.I64();
  f->rtt = GetSummary(r);
  f->queue_delay = GetSummary(r);
  f->task_latency = GetSummary(r);
  f->exact = r.Bool();
  return r.ok();
}

void PutSeries(ByteWriter& w, const stats::MeterSeries& s) {
  w.I64(s.window);
  w.U32(static_cast<uint32_t>(s.windows.size()));
  for (const stats::WindowStat& ws : s.windows) {
    w.I64(ws.start);
    w.I64(ws.count);
    w.I64(ws.p50);
    w.I64(ws.p95);
    w.I64(ws.p99);
  }
}

bool GetSeries(ByteReader& r, stats::MeterSeries* out) {
  out->window = r.I64();
  const uint32_t n = r.Count(kMaxWindows);
  out->windows.reserve(n);
  TimeNs prev = 0;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    stats::WindowStat ws;
    ws.start = r.I64();
    ws.count = r.I64();
    ws.p50 = r.I64();
    ws.p95 = r.I64();
    ws.p99 = r.I64();
    if (i > 0 && ws.start <= prev) {
      return false;  // Sealed windows are strictly ascending by start.
    }
    prev = ws.start;
    out->windows.push_back(ws);
  }
  return r.ok();
}

void PutByteSeries(ByteWriter& w, const stats::ByteSeries& s) {
  w.I64(s.window);
  w.U32(static_cast<uint32_t>(s.windows.size()));
  for (const stats::ByteWindow& bw : s.windows) {
    w.I64(bw.start);
    w.I64(bw.count);
    w.I64(bw.bytes);
  }
}

bool GetByteSeries(ByteReader& r, stats::ByteSeries* out) {
  out->window = r.I64();
  const uint32_t n = r.Count(kMaxWindows);
  out->windows.reserve(n);
  TimeNs prev = 0;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    stats::ByteWindow bw;
    bw.start = r.I64();
    bw.count = r.I64();
    bw.bytes = r.I64();
    if (i > 0 && bw.start <= prev) {
      return false;  // Sealed windows are strictly ascending by start.
    }
    prev = bw.start;
    out->windows.push_back(bw);
  }
  return r.ok();
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

std::string EncodeJob(const CampaignJob& job) {
  ByteWriter w;
  w.U32(kJobMagic);
  PutConfig(w, job.config);
  w.U32(static_cast<uint32_t>(job.stations.size()));
  for (const scenario::StationSpec& s : job.stations) {
    PutStation(w, s);
  }
  w.U32(static_cast<uint32_t>(job.flows.size()));
  for (const scenario::FlowSpec& f : job.flows) {
    PutFlow(w, f);
  }
  return w.Take();
}

bool DecodeJob(std::string_view data, CampaignJob* out) {
  ByteReader r(data);
  bool ok = true;
  if (r.U32() != kJobMagic) {
    return false;
  }
  CampaignJob job;
  job.config = GetConfig(r, &ok);
  const uint32_t stations = r.Count(kMaxStations);
  job.stations.reserve(stations);
  for (uint32_t i = 0; i < stations && r.ok() && ok; ++i) {
    job.stations.push_back(GetStation(r, &ok));
  }
  const uint32_t flows = r.Count(kMaxFlows);
  job.flows.reserve(flows);
  for (uint32_t i = 0; i < flows && r.ok() && ok; ++i) {
    job.flows.push_back(GetFlow(r, &ok));
  }
  if (!ok || !r.AtEnd()) {
    return false;
  }
  *out = std::move(job);
  return true;
}

std::string EncodeResults(const scenario::Results& results) {
  ByteWriter w;
  w.U32(kResultsMagic);
  PutNodeDoubleMap(w, results.goodput_bps);
  PutNodeDoubleMap(w, results.airtime_share);
  w.F64(results.aggregate_bps);
  w.F64(results.utilization);
  w.U32(static_cast<uint32_t>(results.flows.size()));
  for (const scenario::FlowResult& f : results.flows) {
    PutFlowResult(w, f);
  }
  w.F64(results.avg_task_time_sec);
  w.F64(results.final_task_time_sec);
  w.I64(results.tasks_completed);
  w.I64(results.mac_collisions);
  w.I64(results.mac_exchanges);
  w.I64(results.ap_drops);
  PutSummary(w, results.rtt);
  PutSummary(w, results.ap_queue_delay);
  PutSummary(w, results.task_latency);
  PutSketch(w, results.rtt_sketch);
  PutSketch(w, results.ap_queue_delay_sketch);
  PutSketch(w, results.task_latency_sketch);
  PutSeries(w, results.rtt_series);
  PutSeries(w, results.ap_queue_delay_series);
  PutSeries(w, results.task_latency_series);
  PutByteSeries(w, results.goodput_series);
  return w.Take();
}

bool DecodeResults(std::string_view data, scenario::Results* out) {
  ByteReader r(data);
  if (r.U32() != kResultsMagic) {
    return false;
  }
  scenario::Results results;
  if (!GetNodeDoubleMap(r, &results.goodput_bps) ||
      !GetNodeDoubleMap(r, &results.airtime_share)) {
    return false;
  }
  results.aggregate_bps = r.F64();
  results.utilization = r.F64();
  const uint32_t flows = r.Count(kMaxFlows);
  results.flows.reserve(flows);
  for (uint32_t i = 0; i < flows && r.ok(); ++i) {
    scenario::FlowResult f;
    if (!GetFlowResult(r, &f)) {
      return false;
    }
    results.flows.push_back(std::move(f));
  }
  results.avg_task_time_sec = r.F64();
  results.final_task_time_sec = r.F64();
  results.tasks_completed = r.I64();
  results.mac_collisions = r.I64();
  results.mac_exchanges = r.I64();
  results.ap_drops = r.I64();
  results.rtt = GetSummary(r);
  results.ap_queue_delay = GetSummary(r);
  results.task_latency = GetSummary(r);
  if (!r.ok() || !GetSketch(r, &results.rtt_sketch) ||
      !GetSketch(r, &results.ap_queue_delay_sketch) ||
      !GetSketch(r, &results.task_latency_sketch)) {
    return false;
  }
  if (!GetSeries(r, &results.rtt_series) ||
      !GetSeries(r, &results.ap_queue_delay_series) ||
      !GetSeries(r, &results.task_latency_series) ||
      !GetByteSeries(r, &results.goodput_series) || !r.AtEnd()) {
    return false;
  }
  *out = std::move(results);
  return true;
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

void PutMerged(ByteWriter& w, const MergedSummary& m) {
  w.I64(m.jobs);
  w.I64(m.tasks_completed);
  w.I64(m.mac_exchanges);
  w.F64(m.aggregate_bps_sum);
  PutSketch(w, m.rtt);
  PutSketch(w, m.ap_queue_delay);
  PutSketch(w, m.task_latency);
}

bool GetMerged(ByteReader& r, MergedSummary* m) {
  m->jobs = r.I64();
  m->tasks_completed = r.I64();
  m->mac_exchanges = r.I64();
  m->aggregate_bps_sum = r.F64();
  return r.ok() && GetSketch(r, &m->rtt) && GetSketch(r, &m->ap_queue_delay) &&
         GetSketch(r, &m->task_latency);
}

}  // namespace

MergedSummary MergeResults(const std::vector<scenario::Results>& results) {
  MergedSummary merged;
  for (const scenario::Results& r : results) {
    FoldInto(&merged, r);
  }
  return merged;
}

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
  PutMerged(trailer, merged);

  ByteWriter w;
  w.str().reserve(12 + body_bytes + trailer.str().size());
  w.U32(kArchiveMagic);
  w.U32(kArchiveVersion);
  w.U32(static_cast<uint32_t>(result_blobs.size()));
  for (const std::string& blob : result_blobs) {
    w.U32(static_cast<uint32_t>(blob.size()));
    w.U32(Crc32(blob));
    w.str() += blob;
  }
  w.str() += trailer.str();
  return w.Take();
}

namespace {

bool DecodeArchiveInternal(std::string_view data, std::vector<scenario::Results>* out,
                           MergedSummary* summary) {
  ByteReader r(data);
  if (r.U32() != kArchiveMagic) {
    return false;
  }
  const uint32_t version = r.U32();
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
  std::vector<scenario::Results> results;
  if (out != nullptr) {
    results.reserve(jobs);
  }
  MergedSummary folded;
  for (uint32_t i = 0; i < jobs && r.ok(); ++i) {
    const uint32_t len = r.U32();
    const uint32_t crc = r.U32();
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
    if (out != nullptr) {
      results.push_back(std::move(decoded));
    }
    r.Advance(len);
  }
  MergedSummary merged;
  if (!GetMerged(r, &merged) || !r.AtEnd()) {
    return false;
  }
  if (merged != folded) {
    return false;  // Trailer must agree with the blobs it summarizes.
  }
  if (out != nullptr) {
    *out = std::move(results);
  }
  if (summary != nullptr) {
    *summary = std::move(merged);
  }
  return true;
}

}  // namespace

bool DecodeArchive(std::string_view data, std::vector<scenario::Results>* out) {
  return DecodeArchiveInternal(data, out, nullptr);
}

bool DecodeArchiveSummary(std::string_view data, MergedSummary* out) {
  return DecodeArchiveInternal(data, nullptr, out);
}

}  // namespace tbf::campaign

#include "tbf/stats/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tbf::stats {

StatsEngine::StatsEngine(StatsConfig config) : config_(config) {}

uint64_t StatsEngine::Mix(uint64_t seed, uint64_t flow_id) {
  // splitmix64 over (seed, flow_id): deterministic, engine-independent, well mixed -
  // the same (seed, id) pair lands in the sample on every shard of every run.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (flow_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void StatsEngine::RegisterFlow(int flow_id) {
  if (flow_id <= 0) {
    return;
  }
  if (flows_.empty()) {
    base_ = flow_id;
  } else if (flow_id < base_) {
    flows_.insert(flows_.begin(), static_cast<size_t>(base_ - flow_id), FlowStats());
    heavy_slot_.insert(heavy_slot_.begin(), static_cast<size_t>(base_ - flow_id), -1);
    base_ = flow_id;
  }
  const size_t i = static_cast<size_t>(flow_id - base_);
  if (i >= flows_.size()) {
    flows_.resize(i + 1);
    heavy_slot_.resize(i + 1, -1);
  }
  FlowStats& fs = flows_[i];
  if (fs.flow_id == flow_id) {
    return;  // Already registered; keep accumulated state.
  }
  fs.flow_id = flow_id;
  fs.sampled = config_.sample_every > 0 &&
               Mix(config_.sample_seed, static_cast<uint64_t>(flow_id)) %
                       static_cast<uint64_t>(config_.sample_every) ==
                   0;
  fs.retained = config_.top_k <= 0 || fs.sampled;
}

FlowStats* StatsEngine::MutableFlow(int flow_id) {
  if (flow_id < base_ || static_cast<size_t>(flow_id - base_) >= flows_.size()) {
    return nullptr;
  }
  FlowStats& fs = flows_[static_cast<size_t>(flow_id - base_)];
  return fs.flow_id == flow_id ? &fs : nullptr;
}

const FlowStats* StatsEngine::flow(int flow_id) const {
  return const_cast<StatsEngine*>(this)->MutableFlow(flow_id);
}

void StatsEngine::RecordBytes(int flow_id, TimeNs now, int64_t bytes) {
  FlowStats* fs = MutableFlow(flow_id);
  if (fs == nullptr || bytes <= 0) {
    return;
  }
  fs->bytes += bytes;
  total_bytes_ += bytes;
  if (config_.top_k > 0) {
    NoteBytesForRetention(*fs, bytes);
  }
  AddBytes(now, bytes);
}

void StatsEngine::AddBytes(TimeNs now, int64_t bytes) {
  // The byte meter is windowed-only: unwindowed runs already expose total_bytes() and
  // the per-flow counted tier, so there is nothing distributional to keep.
  if (config_.window <= 0) {
    return;
  }
  const int64_t idx = now / config_.window;
  if (auto_seal_ && !bytes_open_.empty() && bytes_open_.back().index < idx) {
    SealBytes(idx, nullptr);
  }
  OpenBytes& w = OpenBytesAt(idx);
  ++w.count;
  w.bytes += bytes;
}

void StatsEngine::RecordTaskCompletion(int flow_id, TimeNs now, TimeNs duration) {
  FlowStats* fs = MutableFlow(flow_id);
  if (fs == nullptr) {
    return;
  }
  ++fs->tasks;
  fs->last_completion = now;
  fs->duration_sum += duration;
  if (fs->retained) {
    fs->task_completions.push_back(now);
    fs->task_durations.push_back(duration);
  }
  AddSample(kTaskLatency, now, static_cast<double>(duration),
            fs->retained ? &fs->task_latency_sketch : nullptr);
}

void StatsEngine::RecordRtt(int flow_id, TimeNs now, TimeNs sample) {
  FlowStats* fs = MutableFlow(flow_id);
  if (fs == nullptr) {
    return;
  }
  ++fs->rtt_count;
  fs->rtt_sum += sample;
  AddSample(kRtt, now, static_cast<double>(sample),
            fs->retained ? &fs->rtt_sketch : nullptr);
}

void StatsEngine::RecordQueueDelay(int flow_id, TimeNs now, TimeNs delay) {
  FlowStats* fs = MutableFlow(flow_id);
  if (fs == nullptr) {
    return;
  }
  ++fs->queue_count;
  fs->queue_sum += delay;
  AddSample(kQueueDelay, now, static_cast<double>(delay),
            fs->retained ? &fs->queue_delay_sketch : nullptr);
}

void StatsEngine::AddSample(MeterKind kind, TimeNs now, double value,
                            QuantileSketch* flow_sketch) {
  // Every engine sketch has the default relative error, so one bucket index (one
  // std::log) serves the flow's sketch and the meter.
  Meter& m = meters_[kind];
  const int bucket = m.whole.BucketIndex(value);
  if (flow_sketch != nullptr) {
    flow_sketch->AddAt(bucket, value);
  }
  if (config_.window <= 0) {
    m.whole.AddAt(bucket, value);
    return;
  }
  const int64_t idx = now / config_.window;
  if (auto_seal_ && !m.open.empty() && m.open.back().index < idx) {
    SealMeter(kind, idx, nullptr);
  }
  OpenAt(m, idx).AddAt(bucket, value);
}

QuantileSketch& StatsEngine::OpenAt(Meter& m, int64_t index) {
  // Common case: samples (and child merges at barriers) arrive in nondecreasing
  // window order, so the target is the back or a brand-new back.
  if (m.open.empty() || m.open.back().index < index) {
    m.open.push_back(OpenWindow{index, QuantileSketch()});
    return m.open.back().sketch;
  }
  auto it = std::lower_bound(
      m.open.begin(), m.open.end(), index,
      [](const OpenWindow& w, int64_t i) { return w.index < i; });
  if (it == m.open.end() || it->index != index) {
    it = m.open.insert(it, OpenWindow{index, QuantileSketch()});
  }
  return it->sketch;
}

void StatsEngine::SealWindowsUpTo(TimeNs now, StatsEngine* parent) {
  if (config_.window <= 0) {
    return;
  }
  // Window i covers [i*W, (i+1)*W); it is sealed once its end has passed, i.e. for
  // every i < now / W.
  const int64_t limit = now / config_.window;
  for (int k = 0; k < kNumMeters; ++k) {
    SealMeter(static_cast<MeterKind>(k), limit, parent);
  }
  SealBytes(limit, parent);
}

void StatsEngine::FlushAll(StatsEngine* parent) {
  for (int k = 0; k < kNumMeters; ++k) {
    if (config_.window > 0) {
      SealMeter(static_cast<MeterKind>(k), std::numeric_limits<int64_t>::max(), parent);
    } else if (parent != nullptr && !meters_[k].whole.empty()) {
      parent->meters_[k].whole.Merge(meters_[k].whole);
    }
  }
  if (config_.window > 0) {
    SealBytes(std::numeric_limits<int64_t>::max(), parent);
  }
}

void StatsEngine::SealMeter(MeterKind kind, int64_t limit_index, StatsEngine* parent) {
  Meter& m = meters_[kind];
  while (!m.open.empty() && m.open.front().index < limit_index) {
    OpenWindow& w = m.open.front();
    WindowStat ws;
    ws.start = w.index * config_.window;
    ws.count = w.sketch.count();
    if (ws.count > 0) {
      double q[3];
      w.sketch.Quantiles3(0.50, 0.95, 0.99, q);
      ws.p50 = static_cast<TimeNs>(std::llround(q[0]));
      ws.p95 = static_cast<TimeNs>(std::llround(q[1]));
      ws.p99 = static_cast<TimeNs>(std::llround(q[2]));
    }
    m.sealed.push_back(ws);
    m.whole.Merge(w.sketch);
    if (parent != nullptr) {
      parent->OpenAt(parent->meters_[kind], w.index).Merge(w.sketch);
    }
    m.open.pop_front();  // Frees the window's sketch.
  }
}

void StatsEngine::SealBytes(int64_t limit_index, StatsEngine* parent) {
  while (!bytes_open_.empty() && bytes_open_.front().index < limit_index) {
    OpenBytes& w = bytes_open_.front();
    bytes_sealed_.push_back(ByteWindow{w.index * config_.window, w.count, w.bytes});
    if (parent != nullptr) {
      OpenBytes& pw = parent->OpenBytesAt(w.index);
      pw.count += w.count;
      pw.bytes += w.bytes;
    }
    bytes_open_.pop_front();
  }
}

StatsEngine::OpenBytes& StatsEngine::OpenBytesAt(int64_t index) {
  if (bytes_open_.empty() || bytes_open_.back().index < index) {
    bytes_open_.push_back(OpenBytes{index, 0, 0});
    return bytes_open_.back();
  }
  auto it = std::lower_bound(bytes_open_.begin(), bytes_open_.end(), index,
                             [](const OpenBytes& w, int64_t i) { return w.index < i; });
  if (it == bytes_open_.end() || it->index != index) {
    it = bytes_open_.insert(it, OpenBytes{index, 0, 0});
  }
  return *it;
}

MeterSeries StatsEngine::series(MeterKind kind) const {
  MeterSeries out;
  out.window = config_.window;
  out.windows = meters_[kind].sealed;
  return out;
}

ByteSeries StatsEngine::bytes_series() const {
  ByteSeries out;
  out.window = config_.window;
  out.windows = bytes_sealed_;
  return out;
}

void StatsEngine::NoteBytesForRetention(FlowStats& fs, int64_t bytes) {
  const size_t i = static_cast<size_t>(fs.flow_id - base_);
  const int32_t slot = heavy_slot_[i];
  if (slot >= 0) {
    heavy_[slot].estimate += bytes;
    return;
  }
  if (heavy_.size() < static_cast<size_t>(config_.top_k)) {
    heavy_slot_[i] = static_cast<int32_t>(heavy_.size());
    heavy_.push_back(HeavyEntry{fs.flow_id, bytes, 0});
    fs.retained = true;
    return;
  }
  // Space-saving eviction: the new flow takes over the minimum-estimate slot,
  // inheriting its estimate as the overcount bound (ties broken by lowest slot -
  // deterministic, no dependence on insertion history beyond the table state).
  size_t victim = 0;
  for (size_t s = 1; s < heavy_.size(); ++s) {
    if (heavy_[s].estimate < heavy_[victim].estimate) {
      victim = s;
    }
  }
  HeavyEntry& e = heavy_[victim];
  FlowStats* evicted = MutableFlow(e.flow_id);
  heavy_slot_[static_cast<size_t>(e.flow_id - base_)] = -1;
  if (evicted != nullptr && !evicted->sampled) {
    DropExactTier(*evicted);
  }
  const int64_t inherited = e.estimate;
  e = HeavyEntry{fs.flow_id, inherited + bytes, inherited};
  heavy_slot_[i] = static_cast<int32_t>(victim);
  fs.retained = true;
}

void StatsEngine::DropExactTier(FlowStats& fs) {
  fs.retained = false;
  std::vector<TimeNs>().swap(fs.task_completions);
  std::vector<TimeNs>().swap(fs.task_durations);
  fs.rtt_sketch = QuantileSketch();
  fs.queue_delay_sketch = QuantileSketch();
  fs.task_latency_sketch = QuantileSketch();
}

bool StatsEngine::HeavyEstimate(int flow_id, int64_t* estimate,
                                int64_t* overcount) const {
  if (flow_id < base_ || static_cast<size_t>(flow_id - base_) >= heavy_slot_.size()) {
    return false;
  }
  const int32_t slot = heavy_slot_[static_cast<size_t>(flow_id - base_)];
  if (slot < 0) {
    return false;
  }
  *estimate = heavy_[slot].estimate;
  *overcount = heavy_[slot].overcount;
  return true;
}

size_t StatsEngine::MemoryFootprintBytes() const {
  size_t total = sizeof(*this);
  total += flows_.capacity() * sizeof(FlowStats);
  total += heavy_slot_.capacity() * sizeof(int32_t);
  total += heavy_.capacity() * sizeof(HeavyEntry);
  for (const FlowStats& fs : flows_) {
    total += fs.task_completions.capacity() * sizeof(TimeNs);
    total += fs.task_durations.capacity() * sizeof(TimeNs);
    // sizeof the sketches is already inside sizeof(FlowStats); count heap only.
    total += fs.rtt_sketch.MemoryBytes() - sizeof(QuantileSketch);
    total += fs.queue_delay_sketch.MemoryBytes() - sizeof(QuantileSketch);
    total += fs.task_latency_sketch.MemoryBytes() - sizeof(QuantileSketch);
  }
  for (const Meter& m : meters_) {
    total += m.whole.MemoryBytes() - sizeof(QuantileSketch);
    for (const OpenWindow& w : m.open) {
      total += w.sketch.MemoryBytes();
    }
    total += m.sealed.capacity() * sizeof(WindowStat);
  }
  total += bytes_open_.size() * sizeof(OpenBytes);
  total += bytes_sealed_.capacity() * sizeof(ByteWindow);
  return total;
}

}  // namespace tbf::stats

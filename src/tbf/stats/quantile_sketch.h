// Mergeable fixed-memory quantile sketch (DDSketch-style logarithmic buckets).
//
// The latency metrology layer (per-flow TCP RTT, AP queueing delay, task completion
// latency) needs streaming quantiles that (a) use bounded memory regardless of sample
// count, (b) carry a documented error bound against an exact-sort oracle, and (c) merge
// *deterministically and order-independently*, so SweepRunner results stay bit-identical
// across pool sizes and benches can pool per-seed sketches in any order.
//
// Design: values are hashed into logarithmic buckets gamma^i with
// gamma = (1 + e) / (1 - e) for a configured relative error e. Bucket i holds values in
// (gamma^(i-1), gamma^i]; its representative 2*gamma^i / (gamma + 1) is within a factor
// (1 +- e) of every value in the bucket. Quantile(q) walks the cumulative counts to the
// bucket containing the sample of rank max(1, ceil(q*n)) and returns that representative
// clamped into [min, max] observed - so for any value in [kMinValue, kMaxValue] the
// estimate is within relative error e of the exact empirical quantile
// (|est - exact| <= e * exact; tests/quantile_test.cpp enforces it against std::sort).
//
// Merging adds bucket counts elementwise (int64) and combines min/max/count - all
// commutative and associative with no floating-point accumulation, hence bitwise
// deterministic for any merge order or grouping. Memory: one int64 per bucket,
// ~1.7k buckets at the default 1% error over [1, 1e15] (sub-ns to ~11.6 simulated
// days when fed TimeNs - room for sojourn samples of replays backlogged across an
// hours-long capture) = ~14 KB, allocated on first Add so empty sketches are free.
// Values below/above the range clamp into the edge buckets (the bound then degrades
// to the range edge).
#ifndef TBF_STATS_QUANTILE_SKETCH_H_
#define TBF_STATS_QUANTILE_SKETCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tbf::stats {

class QuantileSketch {
 public:
  // Relative value-error bound of Quantile() for samples inside [kMinValue, kMaxValue].
  static constexpr double kDefaultRelativeError = 0.01;
  // Bucketed dynamic range. Fed with TimeNs this spans 1 ns .. ~11.6 simulated days.
  static constexpr double kMinValue = 1.0;
  static constexpr double kMaxValue = 1e15;

  explicit QuantileSketch(double relative_error = kDefaultRelativeError);

  // Records one sample. Values outside [kMinValue, kMaxValue] clamp into the edge
  // buckets (min/max still track the raw value); a NaN aborts. Same as
  // AddAt(BucketIndex(value), value).
  void Add(double value);

  // The bucket Add files `value` under. It costs one std::log, and it depends only on
  // the relative error, so a caller feeding one sample into several sketches of the
  // same error computes it once and passes it to AddAt.
  int BucketIndex(double value) const;
  // Records `value` in `bucket`, which must be BucketIndex(value) of a sketch with
  // this one's relative error. Aborts on a bucket outside the array or a NaN value,
  // which would stick in min/max and make the sketch fail its own deserializer.
  void AddAt(int bucket, double value);

  // Folds `other` into this sketch. Requires identical relative_error. Commutative and
  // associative: any merge order over the same multiset of sketches yields bitwise
  // identical state.
  void Merge(const QuantileSketch& other);

  // Empirical q-quantile estimate (q in [0, 1]): the representative of the bucket
  // holding the sample of rank max(1, ceil(q * count)), clamped to [min, max].
  // Returns 0 when empty.
  double Quantile(double q) const;

  // Three quantiles (ascending qs) in one cumulative walk; bit-identical to three
  // Quantile() calls. The per-flow p50/p95/p99 readout is hot enough at cell scale
  // (hundreds of flows x three meters) that the single pass matters.
  void Quantiles3(double q1, double q2, double q3, double out[3]) const;

  // Appends a self-delimiting binary encoding to *out: magic, error bound, count,
  // min/max (exact IEEE bit patterns), occupied bucket window, window counts. The
  // encoding is a pure function of the sketch state, and DeserializeFrom reconstructs
  // state that compares equal (operator==) to the original - so serialize -> ship ->
  // deserialize -> Merge is bit-identical to merging the originals (the campaign
  // coordinator pools worker sketches through exactly this path).
  void SerializeTo(std::string* out) const;

  // Parses one sketch from data at *pos, advancing *pos past it. Returns false without
  // advancing on truncated or corrupt input (bad magic, error bound out of range,
  // window outside the bucket array, negative bucket counts, count mismatch) - a
  // validation failure, never a crash, so remote payloads can be rejected and re-queued.
  static bool DeserializeFrom(std::string_view data, size_t* pos, QuantileSketch* out);

  // Bytes this sketch holds (struct + bucket array heap). StatsEngine sums these for
  // its metrology-footprint readout.
  size_t MemoryBytes() const { return sizeof(*this) + counts_.capacity() * sizeof(int64_t); }

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double relative_error() const { return relative_error_; }

  // Bitwise equality; sweep determinism tests compare whole Results structs.
  friend bool operator==(const QuantileSketch&, const QuantileSketch&) = default;

 private:
  int BucketForRank(int64_t rank) const;
  double Representative(int bucket) const;

  double relative_error_;
  double gamma_;
  double log_gamma_;
  int bucket_count_;

  int64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<int64_t> counts_;  // Allocated (bucket_count_ entries) on first Add.
  // Occupied bucket range [lo_, hi_] (latency meters span a narrow band of the 1.7k
  // buckets): merges and quantile walks touch only this window instead of the whole
  // array. Purely derived from the adds, so determinism/equality are unaffected.
  int lo_ = 0;
  int hi_ = -1;
};

}  // namespace tbf::stats

#endif  // TBF_STATS_QUANTILE_SKETCH_H_

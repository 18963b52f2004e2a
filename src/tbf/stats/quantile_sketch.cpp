#include "tbf/stats/quantile_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "tbf/util/logging.h"

namespace tbf::stats {
namespace {

// Little-endian primitive append/read helpers. Doubles travel as their IEEE-754 bit
// patterns, so round-trips are exact and the deserialized sketch is bitwise equal.
void AppendU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(b, 8);
}

void AppendU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(b, 4);
}

bool ReadU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (data.size() - *pos < 8) {
    return false;
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(data[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

bool ReadU32(std::string_view data, size_t* pos, uint32_t* v) {
  if (data.size() - *pos < 4) {
    return false;
  }
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(data[*pos + i])) << (8 * i);
  }
  *pos += 4;
  *v = out;
  return true;
}

constexpr uint32_t kSketchMagic = 0x51534b31;  // "QSK1"

}  // namespace

QuantileSketch::QuantileSketch(double relative_error)
    : relative_error_(relative_error),
      gamma_((1.0 + relative_error) / (1.0 - relative_error)),
      log_gamma_(std::log(gamma_)) {
  TBF_CHECK(relative_error > 0.0 && relative_error < 1.0);
  // Bucket i covers (gamma^(i-1), gamma^i]; index 0 is everything <= kMinValue.
  bucket_count_ =
      static_cast<int>(std::ceil(std::log(kMaxValue / kMinValue) / log_gamma_)) + 1;
}

int QuantileSketch::BucketIndex(double value) const {
  if (!(value > kMinValue)) {  // Below range: the bottom bucket.
    return 0;
  }
  // Clamped before the cast: +inf has no int value.
  const double index = std::ceil(std::log(value / kMinValue) / log_gamma_);
  return static_cast<int>(std::min(index, static_cast<double>(bucket_count_ - 1)));
}

void QuantileSketch::Add(double value) { AddAt(BucketIndex(value), value); }

void QuantileSketch::AddAt(int bucket, double value) {
  TBF_CHECK(bucket >= 0 && bucket < bucket_count_)
      << "bucket " << bucket << " out of range";
  TBF_CHECK(!std::isnan(value)) << "a sketch sample must not be NaN";
  if (counts_.empty()) {
    counts_.assign(static_cast<size_t>(bucket_count_), 0);
    min_ = value;
    max_ = value;
    lo_ = bucket;
    hi_ = bucket;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    lo_ = std::min(lo_, bucket);
    hi_ = std::max(hi_, bucket);
  }
  ++counts_[static_cast<size_t>(bucket)];
  ++count_;
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  TBF_CHECK(relative_error_ == other.relative_error_)
      << "merging sketches with different error bounds";
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  // Only the occupied window carries non-zero counts; adding zeros is a no-op, so the
  // windowed add is bitwise identical to the full-array add it replaces.
  for (int i = other.lo_; i <= other.hi_; ++i) {
    counts_[static_cast<size_t>(i)] += other.counts_[static_cast<size_t>(i)];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
}

int QuantileSketch::BucketForRank(int64_t rank) const {
  int64_t cumulative = 0;
  for (int i = lo_; i <= hi_; ++i) {
    cumulative += counts_[static_cast<size_t>(i)];
    if (cumulative >= rank) {
      return i;
    }
  }
  return hi_;  // Unreachable while rank <= count_.
}

// Geometric midpoint of (gamma^(i-1), gamma^i], within (1 +- e) of every value in the
// bucket. Bucket 0 holds values at or below kMinValue; its representative is the range
// floor, and the caller's clamp substitutes the exact min when every sample sits there.
double QuantileSketch::Representative(int bucket) const {
  return bucket == 0 ? kMinValue
                     : 2.0 * std::pow(gamma_, static_cast<double>(bucket)) / (gamma_ + 1.0);
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  return std::clamp(Representative(BucketForRank(rank)), min_, max_);
}

void QuantileSketch::Quantiles3(double q1, double q2, double q3, double out[3]) const {
  if (count_ == 0) {
    out[0] = out[1] = out[2] = 0.0;
    return;
  }
  const double qs[3] = {q1, q2, q3};
  int64_t ranks[3];
  for (int k = 0; k < 3; ++k) {
    const double q = std::clamp(qs[k], 0.0, 1.0);
    ranks[k] = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
    TBF_CHECK(k == 0 || ranks[k] >= ranks[k - 1]) << "Quantiles3 needs ascending qs";
  }
  int64_t cumulative = 0;
  int k = 0;
  for (int i = lo_; i <= hi_ && k < 3; ++i) {
    cumulative += counts_[static_cast<size_t>(i)];
    while (k < 3 && cumulative >= ranks[k]) {
      out[k++] = std::clamp(Representative(i), min_, max_);
    }
  }
  for (; k < 3; ++k) {
    out[k] = std::clamp(Representative(hi_), min_, max_);  // Unreachable in practice.
  }
}

void QuantileSketch::SerializeTo(std::string* out) const {
  AppendU32(out, kSketchMagic);
  AppendU64(out, std::bit_cast<uint64_t>(relative_error_));
  AppendU64(out, static_cast<uint64_t>(count_));
  AppendU64(out, std::bit_cast<uint64_t>(min_));
  AppendU64(out, std::bit_cast<uint64_t>(max_));
  AppendU32(out, static_cast<uint32_t>(lo_));
  AppendU32(out, static_cast<uint32_t>(static_cast<int32_t>(hi_)));
  if (count_ > 0) {
    for (int i = lo_; i <= hi_; ++i) {
      AppendU64(out, static_cast<uint64_t>(counts_[static_cast<size_t>(i)]));
    }
  }
}

bool QuantileSketch::DeserializeFrom(std::string_view data, size_t* pos,
                                     QuantileSketch* out) {
  size_t p = *pos;
  uint32_t magic = 0, lo_raw = 0, hi_raw = 0;
  uint64_t err_bits = 0, count_raw = 0, min_bits = 0, max_bits = 0;
  if (!ReadU32(data, &p, &magic) || magic != kSketchMagic ||
      !ReadU64(data, &p, &err_bits) || !ReadU64(data, &p, &count_raw) ||
      !ReadU64(data, &p, &min_bits) || !ReadU64(data, &p, &max_bits) ||
      !ReadU32(data, &p, &lo_raw) || !ReadU32(data, &p, &hi_raw)) {
    return false;
  }
  const double relative_error = std::bit_cast<double>(err_bits);
  if (!(relative_error > 0.0) || !(relative_error < 1.0)) {  // NaN fails both.
    return false;
  }
  QuantileSketch sketch(relative_error);
  const int64_t count = static_cast<int64_t>(count_raw);
  const int lo = static_cast<int>(lo_raw);
  const int hi = static_cast<int>(static_cast<int32_t>(hi_raw));
  const double min = std::bit_cast<double>(min_bits);
  const double max = std::bit_cast<double>(max_bits);
  if (count < 0) {
    return false;
  }
  if (count == 0) {
    // An empty sketch carries no window and no counts; insist on the canonical empty
    // state so re-serialization is byte-identical.
    if (lo != 0 || hi != -1 || min != 0.0 || max != 0.0) {
      return false;
    }
  } else {
    if (lo < 0 || hi < lo || hi >= sketch.bucket_count_) {
      return false;
    }
    if (std::isnan(min) || std::isnan(max) || min > max) {
      return false;
    }
    sketch.counts_.assign(static_cast<size_t>(sketch.bucket_count_), 0);
    int64_t sum = 0;
    for (int i = lo; i <= hi; ++i) {
      uint64_t c = 0;
      if (!ReadU64(data, &p, &c)) {
        return false;
      }
      const int64_t signed_c = static_cast<int64_t>(c);
      if (signed_c < 0) {
        return false;
      }
      sketch.counts_[static_cast<size_t>(i)] = signed_c;
      sum += signed_c;
    }
    // Edge buckets of the window must be occupied (the window is tight by
    // construction) and the counts must add up to the advertised total.
    if (sum != count || sketch.counts_[static_cast<size_t>(lo)] == 0 ||
        sketch.counts_[static_cast<size_t>(hi)] == 0) {
      return false;
    }
    sketch.count_ = count;
    sketch.min_ = min;
    sketch.max_ = max;
    sketch.lo_ = lo;
    sketch.hi_ = hi;
  }
  *out = std::move(sketch);
  *pos = p;
  return true;
}

}  // namespace tbf::stats

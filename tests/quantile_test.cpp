// Property tests for stats::QuantileSketch: the documented relative-error bound against
// an exact-sort oracle on uniform / Pareto / adversarial-sorted inputs, merge(A,B)
// equivalence to a whole-stream sketch, and bitwise determinism of merged state
// independent of merge order and thread interleaving (the sweep-pool invariance the
// scenario Results rely on).
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "tbf/sim/random.h"
#include "tbf/stats/quantile_sketch.h"
#include "tbf/sweep/sweep_runner.h"

namespace tbf::stats {
namespace {

constexpr double kQuantiles[] = {0.0, 0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0};

// The sketch's rank rule, mirrored exactly: the q-quantile of n sorted samples is the
// element of rank max(1, ceil(q*n)).
double ExactQuantile(std::vector<double> sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * n)));
  return sorted[static_cast<size_t>(rank - 1)];
}

void ExpectWithinBound(const QuantileSketch& sketch, std::vector<double> samples,
                       const char* label) {
  std::sort(samples.begin(), samples.end());
  for (const double q : kQuantiles) {
    const double exact = ExactQuantile(samples, q);
    const double est = sketch.Quantile(q);
    EXPECT_NEAR(est, exact, sketch.relative_error() * exact + 1e-9)
        << label << " q=" << q;
  }
}

std::vector<double> UniformSamples(int n, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back(1e3 + rng.UniformDouble() * 1e8);  // us-scale latencies in ns.
  }
  return v;
}

std::vector<double> ParetoSamples(int n, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back(rng.Pareto(5e4, 1.2));  // Heavy tail: spans many bucket decades.
  }
  return v;
}

TEST(QuantileSketchTest, EmptySketchReadsZero) {
  QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.count(), 0);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
}

TEST(QuantileSketchTest, SingleValueIsExact) {
  QuantileSketch sketch;
  sketch.Add(123456.0);
  for (const double q : kQuantiles) {
    // One sample: every quantile clamps into [min, max] = the sample itself.
    EXPECT_DOUBLE_EQ(sketch.Quantile(q), 123456.0);
  }
}

TEST(QuantileSketchTest, UniformWithinRelativeErrorBound) {
  const std::vector<double> samples = UniformSamples(20'000, 7);
  QuantileSketch sketch;
  for (const double x : samples) {
    sketch.Add(x);
  }
  EXPECT_EQ(sketch.count(), 20'000);
  ExpectWithinBound(sketch, samples, "uniform");
}

TEST(QuantileSketchTest, ParetoWithinRelativeErrorBound) {
  const std::vector<double> samples = ParetoSamples(20'000, 11);
  QuantileSketch sketch;
  for (const double x : samples) {
    sketch.Add(x);
  }
  ExpectWithinBound(sketch, samples, "pareto");
}

TEST(QuantileSketchTest, AdversarialSortedInputWithinBound) {
  // Sorted input is the classic killer for sampling-based sketches (every new value
  // lands past everything seen); bucketed sketches must not care. Geometric spacing
  // makes every sample hit a different bucket region.
  std::vector<double> samples;
  double x = 10.0;
  for (int i = 0; i < 5'000; ++i) {
    samples.push_back(x);
    x *= 1.004;
  }
  QuantileSketch ascending;
  for (const double v : samples) {
    ascending.Add(v);
  }
  ExpectWithinBound(ascending, samples, "sorted-ascending");

  QuantileSketch descending;
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    descending.Add(*it);
  }
  // Same multiset, opposite insertion order: bitwise identical state.
  EXPECT_EQ(ascending, descending);
}

TEST(QuantileSketchTest, OutOfRangeValuesClampIntoEdgeBuckets) {
  QuantileSketch sketch;
  sketch.Add(0.0);     // Below kMinValue.
  sketch.Add(-5.0);    // Negative.
  sketch.Add(1e18);    // Above kMaxValue.
  EXPECT_EQ(sketch.count(), 3);
  EXPECT_EQ(sketch.min(), -5.0);
  EXPECT_EQ(sketch.max(), 1e18);
  // Quantiles stay inside the observed range even for clamped samples.
  for (const double q : kQuantiles) {
    EXPECT_GE(sketch.Quantile(q), -5.0);
    EXPECT_LE(sketch.Quantile(q), 1e18);
  }
  // The infinities land in the same edge buckets: the quantiles match a sketch fed
  // finite out-of-range values in their place.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  QuantileSketch with_inf = sketch;
  with_inf.Add(kInf);
  with_inf.Add(-kInf);
  sketch.Add(1e18);
  sketch.Add(-5.0);
  EXPECT_EQ(with_inf.count(), 5);
  EXPECT_EQ(with_inf.min(), -kInf);
  EXPECT_EQ(with_inf.max(), kInf);
  for (const double q : kQuantiles) {
    EXPECT_EQ(with_inf.Quantile(q), sketch.Quantile(q)) << q;
  }
}

TEST(QuantileSketchDeathTest, NanSampleAborts) {
  // A NaN would stick in min/max for good, and the sketch's own SerializeTo bytes
  // would then fail DeserializeFrom. This binary starts sweep threads, so the death
  // test re-executes itself instead of forking a threaded process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  QuantileSketch sketch;
  EXPECT_DEATH(sketch.Add(std::numeric_limits<double>::quiet_NaN()), "NaN");
  sketch.Add(5.0);
  EXPECT_DEATH(sketch.AddAt(0, std::numeric_limits<double>::quiet_NaN()), "NaN");
}

// ---- Merge properties ------------------------------------------------------------------

TEST(QuantileSketchMergeTest, MergeEqualsWholeStreamSketch) {
  const std::vector<double> a = ParetoSamples(8'000, 3);
  const std::vector<double> b = UniformSamples(12'000, 5);

  QuantileSketch whole;
  for (const double x : a) {
    whole.Add(x);
  }
  for (const double x : b) {
    whole.Add(x);
  }

  QuantileSketch sa;
  for (const double x : a) {
    sa.Add(x);
  }
  QuantileSketch sb;
  for (const double x : b) {
    sb.Add(x);
  }
  sa.Merge(sb);

  // Merging partial sketches is *identical* (not merely within-bound) to sketching the
  // concatenated stream: bucket counts are insertion-order independent.
  EXPECT_EQ(sa, whole);

  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  ExpectWithinBound(sa, all, "merged");
}

TEST(QuantileSketchMergeTest, MergeWithEmptyIsIdentity) {
  QuantileSketch sketch;
  for (const double x : UniformSamples(1'000, 9)) {
    sketch.Add(x);
  }
  const QuantileSketch before = sketch;
  QuantileSketch empty;
  sketch.Merge(empty);
  EXPECT_EQ(sketch, before);

  QuantileSketch target;
  target.Merge(before);
  EXPECT_EQ(target, before);
}

TEST(QuantileSketchMergeTest, MergeOrderAndGroupingInvariant) {
  // Eight shards merged left-to-right, right-to-left, and as a balanced tree must
  // produce bitwise identical sketches - this is what lets SweepRunner results merge
  // deterministically no matter how jobs landed on workers.
  std::vector<QuantileSketch> shards(8);
  for (size_t i = 0; i < shards.size(); ++i) {
    for (const double x : ParetoSamples(1'500, 100 + i)) {
      shards[i].Add(x);
    }
  }

  QuantileSketch forward;
  for (const QuantileSketch& s : shards) {
    forward.Merge(s);
  }
  QuantileSketch backward;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    backward.Merge(*it);
  }
  std::vector<QuantileSketch> tree = shards;
  while (tree.size() > 1) {
    std::vector<QuantileSketch> next;
    for (size_t i = 0; i + 1 < tree.size(); i += 2) {
      QuantileSketch pair = tree[i];
      pair.Merge(tree[i + 1]);
      next.push_back(pair);
    }
    if (tree.size() % 2 == 1) {
      next.push_back(tree.back());
    }
    tree = std::move(next);
  }

  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward, tree.front());
}

TEST(QuantileSketchSweepTest, ParallelShardingBitIdenticalAcrossPoolSizes) {
  // Build shards on a SweepRunner pool (the TSan configuration runs this across real
  // threads) and fold them in submission order: any pool size must yield the same
  // sketch bit for bit.
  auto build_shard = [](uint64_t seed) {
    QuantileSketch sketch;
    sim::Rng rng(seed);
    for (int i = 0; i < 4'000; ++i) {
      sketch.Add(rng.Pareto(2e4, 1.3));
    }
    return sketch;
  };

  auto run_pool = [&](int pool) {
    sweep::SweepRunner runner(pool);
    std::vector<std::function<QuantileSketch()>> jobs;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      jobs.push_back([&build_shard, seed] { return build_shard(seed); });
    }
    const std::vector<QuantileSketch> shards = runner.Map(std::move(jobs));
    QuantileSketch merged;
    for (const QuantileSketch& s : shards) {
      merged.Merge(s);
    }
    return merged;
  };

  const QuantileSketch serial = run_pool(1);
  EXPECT_EQ(serial.count(), 48'000);
  EXPECT_EQ(run_pool(2), serial);
  EXPECT_EQ(run_pool(4), serial);
}

// ---------------------------------------------------------------------------
// Serialization: the campaign wire format for sketches. The bar is bitwise - a
// deserialized sketch compares equal (operator==, raw double bits) and merging
// after the wire trip is indistinguishable from merging the originals.
// ---------------------------------------------------------------------------

QuantileSketch SampleSketch(uint64_t seed, int n) {
  QuantileSketch sketch;
  sim::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    sketch.Add(rng.Pareto(3e4, 1.25));
  }
  return sketch;
}

TEST(QuantileSketchSerializeTest, RoundTripIsBitwiseEqualAndCanonical) {
  for (const QuantileSketch& original :
       {QuantileSketch(), SampleSketch(3, 1), SampleSketch(4, 10'000)}) {
    std::string bytes;
    original.SerializeTo(&bytes);
    size_t pos = 0;
    QuantileSketch back;
    ASSERT_TRUE(QuantileSketch::DeserializeFrom(bytes, &pos, &back));
    EXPECT_EQ(pos, bytes.size());
    EXPECT_EQ(back, original);
    // Canonical: re-serializing decoded state reproduces the same bytes.
    std::string again;
    back.SerializeTo(&again);
    EXPECT_EQ(again, bytes);
  }
}

TEST(QuantileSketchSerializeTest, DeserializeAdvancesPastOneSketch) {
  std::string bytes;
  SampleSketch(5, 500).SerializeTo(&bytes);
  SampleSketch(6, 700).SerializeTo(&bytes);  // Two sketches back to back.
  size_t pos = 0;
  QuantileSketch first, second;
  ASSERT_TRUE(QuantileSketch::DeserializeFrom(bytes, &pos, &first));
  ASSERT_TRUE(QuantileSketch::DeserializeFrom(bytes, &pos, &second));
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(first, SampleSketch(5, 500));
  EXPECT_EQ(second, SampleSketch(6, 700));
}

TEST(QuantileSketchSerializeTest, MergeAfterWireTripEqualsMergeBefore) {
  QuantileSketch merged_before;
  QuantileSketch merged_after;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const QuantileSketch shard = SampleSketch(seed, 2'000);
    merged_before.Merge(shard);
    std::string bytes;
    shard.SerializeTo(&bytes);
    size_t pos = 0;
    QuantileSketch shipped;
    ASSERT_TRUE(QuantileSketch::DeserializeFrom(bytes, &pos, &shipped));
    merged_after.Merge(shipped);
  }
  EXPECT_EQ(merged_after, merged_before);
}

TEST(QuantileSketchSerializeTest, TruncatedPayloadsAreRejectedWithoutAdvancing) {
  std::string bytes;
  SampleSketch(9, 3'000).SerializeTo(&bytes);
  for (size_t n = 0; n < bytes.size(); ++n) {
    size_t pos = 0;
    QuantileSketch out;
    EXPECT_FALSE(QuantileSketch::DeserializeFrom(
        std::string_view(bytes.data(), n), &pos, &out))
        << "prefix " << n;
    EXPECT_EQ(pos, 0u) << "prefix " << n;  // Rejection never consumes input.
  }
}

TEST(QuantileSketchSerializeTest, CorruptFieldsAreRejected) {
  std::string bytes;
  SampleSketch(10, 3'000).SerializeTo(&bytes);
  size_t rejected = 0;
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
      size_t p = 0;
      QuantileSketch out;
      if (!QuantileSketch::DeserializeFrom(bad, &p, &out)) {
        ++rejected;
      }
    }
  }
  // Not every single-bit flip is detectable without a checksum (the envelope CRC
  // covers that on the wire), but the structural checks - magic, error bound,
  // window bounds, count consistency - must catch a large share.
  EXPECT_GT(rejected, bytes.size() / 2);

  // Targeted corruptions that must always be caught:
  {  // Bad magic.
    std::string bad = bytes;
    bad[0] = static_cast<char>(bad[0] ^ 0xff);
    size_t p = 0;
    QuantileSketch out;
    EXPECT_FALSE(QuantileSketch::DeserializeFrom(bad, &p, &out));
  }
  {  // Count inflated: sum of bucket counts no longer matches.
    std::string bad = bytes;
    bad[12] = static_cast<char>(bad[12] ^ 0x01);  // Low byte of count.
    size_t p = 0;
    QuantileSketch out;
    EXPECT_FALSE(QuantileSketch::DeserializeFrom(bad, &p, &out));
  }
}

}  // namespace
}  // namespace tbf::stats

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace parva {
namespace {

// sorted_sum is a pure function of the multiset, whatever order the
// values come in. 1e16 absorbs 1.0 (the ulp at 1e16 is 2.0), so these
// inputs are order-sensitive: summed left to right they read 0 in one
// order and 1 in another.
TEST(StatsTest, SortedSumIsIndependentOfInputOrder) {
  std::vector<double> values = {-1e16, 1.0, 1e16};  // ascending: every permutation follows
  const std::uint64_t expected = std::bit_cast<std::uint64_t>(sorted_sum(values));
  std::vector<double> naive_sums;
  do {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sorted_sum(values)), expected);
    double naive = 0.0;
    for (const double v : values) naive += v;
    naive_sums.push_back(naive);
  } while (std::next_permutation(values.begin(), values.end()));
  EXPECT_NE(*std::min_element(naive_sums.begin(), naive_sums.end()),
            *std::max_element(naive_sums.begin(), naive_sums.end()));
}

TEST(OnlineStatsTest, EmptyIsZero) {
  const OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(OnlineStatsTest, MeanAndVariance) {
  OnlineStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats whole;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStatsTest, SumIsExactThroughHeavyMerging) {
  // sum() used to be reconstructed as mean * count; the Welford mean's
  // rounding error, amplified by the multiplication, drifted visibly over
  // long merge chains. The carried running sum must instead match a plain
  // accumulator bit-for-bit, because both perform the identical sequence
  // of additions.
  double plain = 0.0;
  OnlineStats merged;
  Rng rng(13);
  for (int chunk = 0; chunk < 64; ++chunk) {
    OnlineStats part;
    for (int i = 0; i < 512; ++i) {
      // Large offset + tiny increments: worst case for mean * count.
      const double x = 1.0e9 + rng.uniform(0.0, 1.0e-3);
      part.add(x);
    }
    merged.merge(part);
    plain += part.sum();
  }
  EXPECT_EQ(merged.count(), 64u * 512u);
  EXPECT_DOUBLE_EQ(merged.sum(), plain);
  // The old reconstruction is measurably off on this input.
  EXPECT_NE(merged.mean() * static_cast<double>(merged.count()), 0.0);
}

TEST(OnlineStatsTest, SumMatchesAdditionOrder) {
  OnlineStats stats;
  double plain = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double x = 0.1 * static_cast<double>(i % 7);
    stats.add(x);
    plain += x;
  }
  EXPECT_DOUBLE_EQ(stats.sum(), plain);
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(SamplesTest, PercentileInterpolates) {
  Samples samples;
  for (int i = 1; i <= 100; ++i) samples.add(static_cast<double>(i));
  EXPECT_NEAR(samples.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(samples.percentile(100.0), 100.0, 1e-12);
  EXPECT_NEAR(samples.p50(), 50.5, 1e-12);
  EXPECT_NEAR(samples.p99(), 99.01, 1e-9);
}

TEST(SamplesTest, SingleValue) {
  Samples samples;
  samples.add(42.0);
  EXPECT_DOUBLE_EQ(samples.p50(), 42.0);
  EXPECT_DOUBLE_EQ(samples.p99(), 42.0);
}

TEST(SamplesTest, FractionAbove) {
  Samples samples;
  for (int i = 1; i <= 10; ++i) samples.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(samples.fraction_above(7.0), 0.3);
  EXPECT_DOUBLE_EQ(samples.fraction_above(0.0), 1.0);
  EXPECT_DOUBLE_EQ(samples.fraction_above(10.0), 0.0);
}

TEST(SamplesTest, AddAfterPercentileKeepsOrderCorrect) {
  Samples samples;
  samples.add(5.0);
  samples.add(1.0);
  EXPECT_DOUBLE_EQ(samples.min(), 1.0);
  (void)samples.p50();
  samples.add(0.5);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(samples.percentile(0.0), 0.5);
}

TEST(SamplesTest, Merge) {
  Samples a;
  a.add(1.0);
  Samples b;
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(SamplesTest, EmptySetReportsZeroInsteadOfThrowing) {
  const Samples empty;
  // Failure-phase outcomes can legitimately complete zero requests; the
  // aggregate accessors must degrade like mean() instead of aborting.
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.fraction_above(10.0), 0.0);
  // Out-of-range percentiles still throw, empty or not.
  EXPECT_THROW((void)empty.percentile(-1.0), std::logic_error);
  EXPECT_THROW((void)empty.percentile(101.0), std::logic_error);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram histogram(0.0, 10.0, 5);
  histogram.add(0.0);    // first bin
  histogram.add(9.999);  // last bin
  histogram.add(10.0);   // boundary lands in last bin
  histogram.add(-5.0);   // clamped to first
  histogram.add(15.0);   // clamped to last
  EXPECT_EQ(histogram.total(), 5u);
  EXPECT_EQ(histogram.bin_count(0), 2u);
  EXPECT_EQ(histogram.bin_count(4), 3u);
  EXPECT_DOUBLE_EQ(histogram.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.bin_hi(4), 10.0);
}

TEST(HistogramTest, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::logic_error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::logic_error);
}

}  // namespace
}  // namespace parva

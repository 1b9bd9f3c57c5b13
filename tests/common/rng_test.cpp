#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/stats.hpp"

namespace parva {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    ASSERT_GE(x, -2.0);
    ASSERT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto x = rng.uniform_int(3, 5);
    ASSERT_GE(x, 3u);
    ASSERT_LE(x, 5u);
    saw_lo |= (x == 3);
    saw_hi |= (x == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(17);
  OnlineStats stats;
  const double rate = 4.0;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.01);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(23);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

// Rng::stream takes its tag only as an RngStreamTag: a raw integer, which
// could collide with a registered tag's value, does not compile.
template <typename Tag>
concept StreamTag = requires(std::uint64_t seed, Tag tag, std::uint64_t index) {
  Rng::stream(seed, tag, index);
};
static_assert(StreamTag<RngStreamTag>);
static_assert(!StreamTag<std::uint64_t>);
static_assert(!StreamTag<int>);

}  // namespace
}  // namespace parva

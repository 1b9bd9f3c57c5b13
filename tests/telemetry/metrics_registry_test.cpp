#include "telemetry/metrics_registry.hpp"

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace parva::telemetry {
namespace {

MetricSnapshot series(const MetricsRegistry& registry, const std::string& name,
                      const std::string& labels = "") {
  for (const MetricSnapshot& s : registry.scrape()) {
    if (s.name == name && s.labels == labels) return s;
  }
  ADD_FAILURE() << "series not found: " << name << "{" << labels << "}";
  return {};
}

double scalar(const MetricsRegistry& registry, const std::string& name,
              const std::string& labels = "") {
  return series(registry, name, labels).value;
}

TEST(MetricsRegistryTest, CounterAccumulates) {
  MetricsRegistry registry;
  Counter c = registry.counter("requests_total", "Requests");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(scalar(registry, "requests_total"), 3.5);
}

TEST(MetricsRegistryTest, GetOrCreateSharesOneSeries) {
  MetricsRegistry registry;
  registry.counter("hits_total").inc();
  registry.counter("hits_total").inc();
  EXPECT_EQ(registry.series_count(), 1u);
  EXPECT_DOUBLE_EQ(scalar(registry, "hits_total"), 2.0);
}

TEST(MetricsRegistryTest, LabelsCreateDistinctSeries) {
  MetricsRegistry registry;
  registry.counter("shed_total", "", "service=\"0\"").inc(3.0);
  registry.counter("shed_total", "", "service=\"1\"").inc(7.0);
  EXPECT_EQ(registry.series_count(), 2u);
  EXPECT_DOUBLE_EQ(scalar(registry, "shed_total", "service=\"0\""), 3.0);
  EXPECT_DOUBLE_EQ(scalar(registry, "shed_total", "service=\"1\""), 7.0);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("x", {1.0}), std::logic_error);
}

TEST(MetricsRegistryTest, HistogramBoundsMismatchThrows) {
  MetricsRegistry registry;
  (void)registry.histogram("latency_ms", {1.0, 5.0});
  EXPECT_NO_THROW((void)registry.histogram("latency_ms", {1.0, 5.0}));
  EXPECT_THROW((void)registry.histogram("latency_ms", {1.0, 10.0}), std::logic_error);
}

TEST(MetricsRegistryTest, GaugeKeepsLastValue) {
  MetricsRegistry registry;
  Gauge g = registry.gauge("fleet_gpus");
  g.set(12.0);
  g.set(9.0);
  EXPECT_DOUBLE_EQ(scalar(registry, "fleet_gpus"), 9.0);
}

TEST(MetricsRegistryTest, HistogramBucketsSumAndCount) {
  MetricsRegistry registry;
  HistogramMetric h = registry.histogram("latency_ms", {1.0, 5.0, 25.0});
  for (double v : {0.5, 3.0, 4.0, 30.0, 100.0}) h.observe(v);
  const auto snapshots = registry.scrape();
  ASSERT_EQ(snapshots.size(), 1u);
  const MetricSnapshot& s = snapshots.front();
  EXPECT_EQ(s.kind, MetricKind::kHistogram);
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.bucket_counts.size(), 4u);  // three finite bounds + (+Inf)
  EXPECT_DOUBLE_EQ(s.bucket_counts[0], 1.0);  // <= 1
  EXPECT_DOUBLE_EQ(s.bucket_counts[1], 2.0);  // (1, 5]
  EXPECT_DOUBLE_EQ(s.bucket_counts[2], 0.0);  // (5, 25]
  EXPECT_DOUBLE_EQ(s.bucket_counts[3], 2.0);  // > 25
  EXPECT_DOUBLE_EQ(s.sum, 137.5);
  EXPECT_DOUBLE_EQ(s.count, 5.0);
}

TEST(MetricsRegistryTest, DefaultHandlesAreNoOps) {
  Counter c;
  Gauge g;
  HistogramMetric h;
  c.inc();
  g.set(1.0);
  h.observe(1.0);  // must not crash; nothing is registered anywhere
}

TEST(MetricsRegistryTest, ScrapeSortsByNameThenLabels) {
  MetricsRegistry registry;
  registry.counter("b_total", "", "k=\"2\"").inc();
  registry.counter("b_total", "", "k=\"1\"").inc();
  registry.counter("a_total").inc();
  const auto snapshots = registry.scrape();
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0].name, "a_total");
  EXPECT_EQ(snapshots[1].labels, "k=\"1\"");
  EXPECT_EQ(snapshots[2].labels, "k=\"2\"");
}

TEST(MetricsRegistryTest, ShardGrowthKeepsEarlierValues) {
  // Interleave registration and writes so each new series grows the
  // registry's storage after earlier series already hold counts.
  MetricsRegistry registry;
  constexpr int kSeries = 200;
  for (int i = 0; i < kSeries; ++i) {
    registry.counter("series_" + std::to_string(i) + "_total").inc(static_cast<double>(i + 1));
  }
  const auto snapshots = registry.scrape();
  ASSERT_EQ(snapshots.size(), static_cast<std::size_t>(kSeries));
  for (int i = 0; i < kSeries; ++i) {
    EXPECT_DOUBLE_EQ(scalar(registry, "series_" + std::to_string(i) + "_total"),
                     static_cast<double>(i + 1));
  }
}

TEST(MetricsRegistryTest, ConcurrentWritersMergeExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter c = registry.counter("concurrent_total");
      HistogramMetric h = registry.histogram("concurrent_ms", {10.0, 100.0});
      for (int i = 0; i < kIncrements; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 200));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(scalar(registry, "concurrent_total"),
                   static_cast<double>(kThreads) * kIncrements);
  for (const MetricSnapshot& s : registry.scrape()) {
    if (s.name != "concurrent_ms") continue;
    EXPECT_DOUBLE_EQ(s.count, static_cast<double>(kThreads) * kIncrements);
  }
}

TEST(MetricsRegistryTest, FreshRegistryReusesThreadCacheSafely) {
  // A new registry on the same thread must not see a destroyed one's
  // values.
  {
    MetricsRegistry first;
    first.counter("v_total").inc(5.0);
  }
  MetricsRegistry second;
  second.counter("v_total").inc(1.0);
  EXPECT_DOUBLE_EQ(scalar(second, "v_total"), 1.0);
}

TEST(MetricsRegistryTest, HistogramSpanObserveMatchesOneByOne) {
  const std::vector<double> values = {0.5, 3.0, 4.0, 30.0, 100.0, 0.1};
  MetricsRegistry one_by_one;
  HistogramMetric single = one_by_one.histogram("latency_ms", {1.0, 5.0, 25.0});
  for (const double v : values) single.observe(v);
  MetricsRegistry bulk;
  bulk.histogram("latency_ms", {1.0, 5.0, 25.0}).observe(values);
  const MetricSnapshot a = series(one_by_one, "latency_ms");
  const MetricSnapshot b = series(bulk, "latency_ms");
  EXPECT_EQ(a.bucket_counts, b.bucket_counts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sum), std::bit_cast<std::uint64_t>(b.sum));
  EXPECT_EQ(a.count, b.count);
}

TEST(MetricsRegistryTest, MergeAddsCountersAndHistogramsAndTakesTheLaterGauge) {
  MetricsRegistry into;
  into.counter("c_total", "Counts").inc(2.0);
  into.gauge("g").set(5.0);
  into.histogram("h_ms", {1.0, 10.0}).observe(0.5);
  MetricsRegistry other;
  other.counter("c_total").inc(3.0);
  other.counter("new_total", "Only in other", "k=\"1\"").inc(4.0);
  other.gauge("g").set(7.0);
  other.histogram("h_ms", {1.0, 10.0}).observe(std::vector<double>{5.0, 50.0});

  into.merge(other);
  EXPECT_EQ(scalar(into, "c_total"), 5.0);
  EXPECT_EQ(scalar(into, "new_total", "k=\"1\""), 4.0);
  EXPECT_EQ(scalar(into, "g"), 7.0);
  EXPECT_EQ(series(into, "c_total").help, "Counts");
  EXPECT_EQ(series(into, "new_total", "k=\"1\"").help, "Only in other");
  const MetricSnapshot h = series(into, "h_ms");
  EXPECT_EQ(h.bucket_counts, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(h.sum, 55.5);
  EXPECT_EQ(h.count, 3.0);
  EXPECT_EQ(into.series_count(), 4u);
  EXPECT_EQ(scalar(other, "c_total"), 3.0);  // the source is left as it was
}

TEST(MetricsRegistryTest, MergeRejectsAnotherKindOrOtherBounds) {
  MetricsRegistry into;
  (void)into.counter("x");
  (void)into.histogram("h_ms", {1.0, 10.0});
  MetricsRegistry gauge_x;
  (void)gauge_x.gauge("x");
  EXPECT_THROW(into.merge(gauge_x), std::logic_error);
  MetricsRegistry wider;
  (void)wider.histogram("h_ms", {1.0, 20.0});
  EXPECT_THROW(into.merge(wider), std::logic_error);
}

/// CPU time this thread has used, in nanoseconds.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Fastest of 5 timings of 100k observe() calls, each on a fresh registry.
double fastest_observe_ns() {
  double fastest = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    MetricsRegistry registry;
    HistogramMetric h =
        registry.histogram("cost_ms", MetricsRegistry::default_latency_buckets_ms());
    const double start = thread_cpu_ns();
    for (int i = 0; i < 100'000; ++i) h.observe(static_cast<double>(i % 300));
    fastest = std::min(fastest, thread_cpu_ns() - start);
  }
  return fastest;
}

// A write must cost the same however many registries the writing thread
// has touched before: tests, sweeps and long-lived callers make many.
TEST(MetricsRegistryTest, WriteCostDoesNotGrowWithRegistriesTouched) {
  const double fresh_ns = fastest_observe_ns();
  for (int i = 0; i < 1'000; ++i) {
    MetricsRegistry registry;
    registry.counter("touched_total").inc();
  }
  const double after_ns = fastest_observe_ns();
  EXPECT_LT(after_ns, 3.0 * fresh_ns)
      << "100k observe() took " << after_ns / 1e6 << " ms after 1,000 registries, "
      << fresh_ns / 1e6 << " ms before";
}

}  // namespace
}  // namespace parva::telemetry

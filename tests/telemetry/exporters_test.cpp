// Golden-file tests for the three exporters. The expected strings are
// exact: exporters emit no timestamps and scrape in sorted (name, labels)
// order, so any byte change here is a deliberate format change.
#include "telemetry/exporters.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"

namespace parva::telemetry {
namespace {

/// A small, fixed registry exercising every metric kind and label shape.
void fill_sample(MetricsRegistry& registry) {
  registry.counter("requests_total", "Requests served", "service=\"1\"").inc(3.0);
  registry.counter("requests_total", "Requests served", "service=\"0\"").inc(5.0);
  registry.gauge("fleet_gpus", "GPUs in use").set(4.0);
  HistogramMetric h = registry.histogram("latency_ms", {1.0, 5.0}, "Batch latency");
  h.observe(0.5);
  h.observe(2.0);
  h.observe(10.0);
}

TEST(ExportersTest, PrometheusGolden) {
  MetricsRegistry registry;
  fill_sample(registry);
  const std::string expected =
      "# HELP fleet_gpus GPUs in use\n"
      "# TYPE fleet_gpus gauge\n"
      "fleet_gpus 4\n"
      "# HELP latency_ms Batch latency\n"
      "# TYPE latency_ms histogram\n"
      "latency_ms_bucket{le=\"1\"} 1\n"
      "latency_ms_bucket{le=\"5\"} 2\n"
      "latency_ms_bucket{le=\"+Inf\"} 3\n"
      "latency_ms_sum 12.5\n"
      "latency_ms_count 3\n"
      "# HELP requests_total Requests served\n"
      "# TYPE requests_total counter\n"
      "requests_total{service=\"0\"} 5\n"
      "requests_total{service=\"1\"} 3\n";
  EXPECT_EQ(to_prometheus(registry), expected);
}

TEST(ExportersTest, CsvSummaryGolden) {
  MetricsRegistry registry;
  fill_sample(registry);
  const std::string expected =
      "metric,labels,value\n"
      "fleet_gpus,,4\n"
      "latency_ms_count,,3\n"
      "latency_ms_sum,,12.5\n"
      "latency_ms_mean,,4.16667\n"
      "latency_ms_p50,,5\n"
      "latency_ms_p95,,5\n"
      "latency_ms_p99,,5\n"
      "requests_total,\"service=\"\"0\"\"\",5\n"
      "requests_total,\"service=\"\"1\"\"\",3\n";
  EXPECT_EQ(to_csv_summary(registry), expected);
}

// The bugfix regression: the CSV/.prom quantiles and Samples::percentile
// must agree when observations sit exactly on bucket bounds — one rank
// convention (rank = q/100 * (n-1), linear interpolation) applied to
// le-inclusive cumulative buckets. Before the fix the exporter had no
// quantile at all and ad-hoc consumers used the nearest-rank convention,
// so a CSV p99 and a report p99 could disagree by a whole bucket.
TEST(ExportersTest, HistogramQuantileMatchesSamplesPercentileOnBounds) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0, 16.0};
  MetricsRegistry registry;
  HistogramMetric h = registry.histogram("on_bounds_ms", bounds, "");
  Samples samples;
  // 17 observations, every one exactly on a bucket bound, skewed low.
  const std::vector<double> values = {1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 8, 8, 8, 16, 16};
  for (const double v : values) {
    h.observe(v);
    samples.add(v);
  }
  const std::vector<MetricSnapshot> scraped = registry.scrape();
  ASSERT_EQ(scraped.size(), 1u);
  for (const double q : {0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(histogram_quantile(scraped[0], q), samples.percentile(q)) << "q=" << q;
  }
}

TEST(ExportersTest, HistogramQuantileEdgeCases) {
  MetricsRegistry registry;
  HistogramMetric h = registry.histogram("edge_ms", {1.0, 5.0}, "");
  // Empty histogram: 0.0, not a crash.
  EXPECT_EQ(histogram_quantile(registry.scrape()[0], 99.0), 0.0);
  // Single observation: that observation's bucket at every quantile.
  h.observe(3.0);
  EXPECT_EQ(histogram_quantile(registry.scrape()[0], 0.0), 5.0);
  EXPECT_EQ(histogram_quantile(registry.scrape()[0], 100.0), 5.0);
  // Overflow observations clamp to the highest finite bound.
  h.observe(100.0);
  EXPECT_EQ(histogram_quantile(registry.scrape()[0], 100.0), 5.0);
  // Scalar snapshots report 0.0.
  MetricsRegistry scalars;
  scalars.counter("c_total", "").inc();
  EXPECT_EQ(histogram_quantile(scalars.scrape()[0], 50.0), 0.0);
}

TEST(ExportersTest, JsonLinesGolden) {
  EventLog log;
  log.record(EventKind::kGpuFailure, 10'000.0, 2);
  log.record(EventKind::kRepairCompleted, 10'800.0, 2, -1, 800.0, "replaced=3 retries=1");
  log.record(EventKind::kRequestShed, 10'100.5, -1, 4);
  const std::string expected =
      "{\"seq\":0,\"t_ms\":10000,\"kind\":\"gpu_failure\",\"gpu\":2}\n"
      "{\"seq\":1,\"t_ms\":10800,\"kind\":\"repair_completed\",\"gpu\":2,\"value\":800,"
      "\"detail\":\"replaced=3 retries=1\"}\n"
      "{\"seq\":2,\"t_ms\":10100.5,\"kind\":\"request_shed\",\"service\":4}\n";
  EXPECT_EQ(to_json_lines(log), expected);
}

TEST(ExportersTest, JsonLinesEndWithTheDroppedCount) {
  EventLog log(2);
  log.record(EventKind::kGpuFailure, 1.0, 0);
  log.record(EventKind::kGpuFailure, 2.0, 1);
  log.record(EventKind::kGpuFailure, 3.0, 2);
  EXPECT_EQ(to_json_lines(log),
            "{\"seq\":0,\"t_ms\":1,\"kind\":\"gpu_failure\",\"gpu\":0}\n"
            "{\"seq\":1,\"t_ms\":2,\"kind\":\"gpu_failure\",\"gpu\":1}\n"
            "{\"dropped\":1}\n");
}

TEST(ExportersTest, JsonEscapesQuotesAndBackslashes) {
  EventLog log;
  log.record(EventKind::kHealthEvent, 1.0, 0, -1, 0.0, "path=\"a\\b\"");
  const std::string out = to_json_lines(log);
  EXPECT_NE(out.find("\"detail\":\"path=\\\"a\\\\b\\\"\""), std::string::npos) << out;
}

TEST(ExportersTest, MetricValueFormatting) {
  EXPECT_EQ(format_metric_value(0.0), "0");
  EXPECT_EQ(format_metric_value(42.0), "42");
  EXPECT_EQ(format_metric_value(-3.0), "-3");
  EXPECT_EQ(format_metric_value(12.5), "12.5");
  EXPECT_EQ(format_metric_value(1.0 / 3.0), "0.333333");
}

TEST(ExportersTest, EmptyInputsExportEmpty) {
  MetricsRegistry registry;
  EXPECT_EQ(to_prometheus(registry), "");
  EXPECT_EQ(to_csv_summary(registry), "metric,labels,value\n");
  EventLog log;
  EXPECT_EQ(to_json_lines(log), "");
}

}  // namespace
}  // namespace parva::telemetry

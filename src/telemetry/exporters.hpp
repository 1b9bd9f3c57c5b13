// Exporters over a scraped MetricsRegistry / EventLog snapshot:
//
//   * Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
//     preambles, `_bucket{le=...}` / `_sum` / `_count` histogram series.
//     No timestamps are emitted, so identical runs export identical text
//     (golden-testable).
//   * JSON lines: one event object per line, in sequence order.
//   * CSV summary: `metric,labels,value` rows through the same TextTable
//     CSV writer the bench results use, so telemetry summaries drop into
//     `results/` next to the figure CSVs.
#pragma once

#include <string>

#include "common/error.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics_registry.hpp"

namespace parva::telemetry {

/// Prometheus text exposition of every registered series.
std::string to_prometheus(const MetricsRegistry& registry);

/// JSON-lines dump of the event log (one object per line, seq order). A
/// log that dropped events past its capacity ends with one
/// `{"dropped":N}` line, so a truncated export says so.
std::string to_json_lines(const EventLog& log);

/// CSV summary (header `metric,labels,value`; histograms flatten to
/// `<name>_sum` / `<name>_count` / `<name>_mean` / `<name>_p50` /
/// `<name>_p95` / `<name>_p99` rows). Row order follows the scrape's
/// (name, labels) sort.
std::string to_csv_summary(const MetricsRegistry& registry);

/// Estimates the q-th percentile (q in [0, 100]) of a histogram snapshot
/// using the SAME rank convention as Samples::percentile — rank
/// q/100 * (count - 1), linearly interpolated between order statistics —
/// over Prometheus le-INCLUSIVE cumulative buckets: the i-th order
/// statistic is attributed to the smallest bound whose cumulative count
/// reaches i + 1. Observations in the +Inf overflow bucket clamp to the
/// highest finite bound. When every observation sits exactly on a bucket
/// bound the estimate equals Samples::percentile on the raw values
/// bit-for-bit (tests/telemetry/exporters_test.cpp pins the
/// reconciliation); in between, it is the usual bucket-resolution
/// approximation. Returns 0.0 for empty histograms and scalar snapshots.
double histogram_quantile(const MetricSnapshot& snapshot, double q);

/// Deterministic value formatting shared by the exporters: integers print
/// bare, everything else with up to six significant decimals.
std::string format_metric_value(double value);

/// Writes `content` to `path`, truncating; parent directories must exist.
[[nodiscard]] Status write_text_file(const std::string& path, const std::string& content);

}  // namespace parva::telemetry

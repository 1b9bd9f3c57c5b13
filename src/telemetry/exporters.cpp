#include "telemetry/exporters.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/table.hpp"

namespace parva::telemetry {
namespace {

/// Escapes a string for a JSON string literal or a Prometheus label value
/// (both use backslash escapes for quote and backslash; JSON additionally
/// needs control characters, which our payloads never contain but are
/// handled anyway).
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

void append_series_line(std::string& out, const std::string& name,
                        const std::string& labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += format_metric_value(value);
  out += '\n';
}

/// Label body with an extra `le` label appended (histogram buckets).
std::string with_le(const std::string& labels, const std::string& le) {
  std::string out = labels;
  if (!out.empty()) out += ',';
  out += "le=\"" + le + "\"";
  return out;
}

}  // namespace

std::string format_metric_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  const std::vector<MetricSnapshot> snapshots = registry.scrape();
  std::string out;
  std::string last_name;
  for (const MetricSnapshot& snapshot : snapshots) {
    if (snapshot.name != last_name) {
      // HELP/TYPE preamble once per metric name; label variants follow.
      if (!snapshot.help.empty()) {
        out += "# HELP " + snapshot.name + " " + snapshot.help + "\n";
      }
      out += "# TYPE " + snapshot.name + " " + to_string(snapshot.kind) + "\n";
      last_name = snapshot.name;
    }
    switch (snapshot.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        append_series_line(out, snapshot.name, snapshot.labels, snapshot.value);
        break;
      case MetricKind::kHistogram: {
        // Prometheus buckets are cumulative.
        double cumulative = 0.0;
        for (std::size_t b = 0; b < snapshot.bounds.size(); ++b) {
          // The cumulative-bucket prefix sum is inherently ordered by index.
          // parva-audit: allow(R14): order fixed by construction.
          cumulative += snapshot.bucket_counts[b];
          append_series_line(out, snapshot.name + "_bucket",
                             with_le(snapshot.labels,
                                     format_metric_value(snapshot.bounds[b])),
                             cumulative);
        }
        // parva-audit: allow(R14): final +Inf term of the ordered prefix sum.
        cumulative += snapshot.bucket_counts.back();
        append_series_line(out, snapshot.name + "_bucket",
                           with_le(snapshot.labels, "+Inf"), cumulative);
        append_series_line(out, snapshot.name + "_sum", snapshot.labels, snapshot.sum);
        append_series_line(out, snapshot.name + "_count", snapshot.labels,
                           snapshot.count);
        break;
      }
    }
  }
  return out;
}

std::string to_json_lines(const EventLog& log) {
  std::string out;
  for (const Event& event : log.snapshot()) {
    out += "{\"seq\":" + std::to_string(event.seq);
    out += ",\"t_ms\":" + format_metric_value(event.t_ms);
    out += ",\"kind\":\"" + std::string(to_string(event.kind)) + "\"";
    if (event.gpu >= 0) out += ",\"gpu\":" + std::to_string(event.gpu);
    if (event.service_id >= 0) {
      out += ",\"service\":" + std::to_string(event.service_id);
    }
    if (event.value != 0.0) out += ",\"value\":" + format_metric_value(event.value);
    if (!event.detail.empty()) out += ",\"detail\":\"" + escape(event.detail) + "\"";
    out += "}\n";
  }
  if (const std::size_t dropped = log.dropped(); dropped != 0) {
    out += "{\"dropped\":" + std::to_string(dropped) + "}\n";
  }
  return out;
}

double histogram_quantile(const MetricSnapshot& snapshot, double q) {
  if (snapshot.kind != MetricKind::kHistogram || snapshot.bounds.empty()) return 0.0;
  q = std::min(100.0, std::max(0.0, q));
  // Total over ALL buckets including +Inf: must equal snapshot.count, but
  // derive it from the buckets so a snapshot built by hand stays coherent.
  double total = 0.0;
  // Bucket counts are small non-negative integers stored as double.
  // parva-audit: allow(R14): integer-valued sum is exact in any order.
  for (const double c : snapshot.bucket_counts) total += c;
  const auto count = static_cast<std::size_t>(total);
  if (count == 0) return 0.0;

  // The value of the i-th (0-based) order statistic at bucket resolution:
  // the smallest le-bound whose cumulative count covers i + 1 observations
  // (le-inclusive convention, as to_prometheus exports). The +Inf overflow
  // bucket has no upper bound; clamp to the highest finite one.
  const auto order_stat = [&snapshot](std::size_t i) {
    double cumulative = 0.0;
    for (std::size_t b = 0; b < snapshot.bounds.size(); ++b) {
      // parva-audit: allow(R14): ordered prefix sum over exact integers.
      cumulative += snapshot.bucket_counts[b];
      if (cumulative >= static_cast<double>(i + 1)) return snapshot.bounds[b];
    }
    return snapshot.bounds.back();
  };

  // Samples::percentile's rank convention, verbatim.
  if (count == 1) return order_stat(0);
  const double rank = q / 100.0 * static_cast<double>(count - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, count - 1);
  const double frac = rank - static_cast<double>(lo);
  return order_stat(lo) * (1.0 - frac) + order_stat(hi) * frac;
}

std::string to_csv_summary(const MetricsRegistry& registry) {
  TextTable table({"metric", "labels", "value"});
  for (const MetricSnapshot& snapshot : registry.scrape()) {
    switch (snapshot.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        table.add_row({snapshot.name, snapshot.labels,
                       format_metric_value(snapshot.value)});
        break;
      case MetricKind::kHistogram: {
        table.add_row({snapshot.name + "_count", snapshot.labels,
                       format_metric_value(snapshot.count)});
        table.add_row({snapshot.name + "_sum", snapshot.labels,
                       format_metric_value(snapshot.sum)});
        const double mean = snapshot.count <= 0.0 ? 0.0 : snapshot.sum / snapshot.count;
        table.add_row({snapshot.name + "_mean", snapshot.labels,
                       format_metric_value(mean)});
        // Quantiles under the same rank convention as Samples::percentile,
        // so a CSV p99 and a Samples-derived p99 agree at bucket
        // resolution (exporters.hpp documents the reconciliation).
        for (const double q : {50.0, 95.0, 99.0}) {
          table.add_row({snapshot.name + "_p" + format_metric_value(q), snapshot.labels,
                         format_metric_value(histogram_quantile(snapshot, q))});
        }
        break;
      }
    }
  }
  return table.to_csv();
}

Status write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status(ErrorCode::kNotFound, "cannot open " + path);
  file << content;
  if (!file) return Status(ErrorCode::kInternal, "short write to " + path);
  return Status::Ok();
}

}  // namespace parva::telemetry

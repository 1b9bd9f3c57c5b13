// Metrics registry: counters, gauges, and fixed-bucket histograms.
//
// Every series is a plain MetricSnapshot under the registry's one mutex,
// and each write takes it. No writer is on a hot path: writes are
// control-plane events or the simulator's end-of-run flush, which hands
// each service's sample vector to HistogramMetric::observe in one call.
//
// Handles (Counter/Gauge/HistogramMetric) are cheap values that remain
// valid as long as the registry lives. A default-constructed handle is a
// no-op sink, so call sites can hold handles unconditionally and pay a
// predictable branch when telemetry is disabled.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace parva::telemetry {

class MetricsRegistry;

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// Monotonically increasing value.
class Counter {
 public:
  Counter() = default;
  void inc(double v = 1.0);

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::size_t index) : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::size_t index_ = 0;
};

/// Last-written value.
class Gauge {
 public:
  Gauge() = default;
  void set(double v);

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::size_t index) : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::size_t index_ = 0;
};

/// Fixed-bucket histogram: per-bound bucket counts plus sum and count,
/// Prometheus-style (an implicit +Inf bucket catches overflow).
class HistogramMetric {
 public:
  HistogramMetric() = default;
  void observe(double v);
  /// Observes `values` in order under one lock; the sum adds them in that
  /// order.
  void observe(std::span<const double> values);

 private:
  friend class MetricsRegistry;
  HistogramMetric(MetricsRegistry* registry, std::size_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::size_t index_ = 0;
};

/// One metric series: the registry's storage, and what scrape() returns.
struct MetricSnapshot {
  std::string name;
  std::string help;
  std::string labels;  ///< Prometheus label body, e.g. `service="3"` (may be empty)
  MetricKind kind = MetricKind::kCounter;

  double value = 0.0;  ///< counters and gauges

  // Histogram payload (empty for scalar metrics).
  std::vector<double> bounds;         ///< finite upper bounds, ascending
  std::vector<double> bucket_counts;  ///< per-bound counts + trailing +Inf bucket
  double sum = 0.0;
  double count = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by (name, labels). Kind and (for histograms) bounds must
  /// match on reuse; mismatches throw.
  Counter counter(const std::string& name, const std::string& help = "",
                  const std::string& labels = "");
  Gauge gauge(const std::string& name, const std::string& help = "",
              const std::string& labels = "");
  HistogramMetric histogram(const std::string& name, std::vector<double> bounds,
                            const std::string& help = "", const std::string& labels = "");

  /// Latency buckets (ms) shared by the serving-path histograms.
  static std::vector<double> default_latency_buckets_ms();

  /// Every registered series, sorted by (name, labels) so exporter output
  /// is stable run-to-run.
  std::vector<MetricSnapshot> scrape() const;

  std::size_t series_count() const;

  /// Folds `other`'s series into this registry, creating the ones it lacks:
  /// counters and histograms add, gauges take `other`'s value. A series
  /// whose kind or bounds differ here throws; the series folded before it
  /// stay folded. Scrapes `other` first, so it never holds both locks.
  void merge(const MetricsRegistry& other);

 private:
  friend class Counter;
  friend class Gauge;
  friend class HistogramMetric;

  /// Index of the (name, labels) series in series_, created with `help`,
  /// `kind` and `bounds` if new. Throws if it exists with another kind or
  /// other bounds.
  std::size_t find_or_add(const std::string& name, const std::string& help,
                          const std::string& labels, MetricKind kind,
                          const std::vector<double>& bounds) PARVA_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<MetricSnapshot> series_ PARVA_GUARDED_BY(mutex_);  ///< registration order
  /// (name, labels) -> position in series_; scrape() walks it in key order.
  std::map<std::pair<std::string, std::string>, std::size_t> index_ PARVA_GUARDED_BY(mutex_);
};

}  // namespace parva::telemetry

#include "telemetry/metrics_registry.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace parva::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void Counter::inc(double v) {
  if (registry_ == nullptr) return;
  MutexLock lock(registry_->mutex_);
  registry_->series_[index_].value += v;
}

void Gauge::set(double v) {
  if (registry_ == nullptr) return;
  MutexLock lock(registry_->mutex_);
  registry_->series_[index_].value = v;
}

void HistogramMetric::observe(double v) { observe(std::span<const double>(&v, 1)); }

void HistogramMetric::observe(std::span<const double> values) {
  if (registry_ == nullptr) return;
  MutexLock lock(registry_->mutex_);
  MetricSnapshot& series = registry_->series_[index_];
  const std::vector<double>& bounds = series.bounds;
  for (const double v : values) {
    // Bounds are ascending; the first bound >= v names the bucket, and the
    // trailing +Inf bucket catches the rest (NaN included). Bucket lists
    // are short (~a dozen), so a linear scan is cheap.
    const auto bucket = std::find_if(bounds.begin(), bounds.end(),
                                     [v](double bound) { return v <= bound; }) -
                        bounds.begin();
    series.bucket_counts[static_cast<std::size_t>(bucket)] += 1.0;
    series.sum += v;  // in the caller's order: the DES flush passes completion order
    series.count += 1.0;
  }
}

std::size_t MetricsRegistry::find_or_add(const std::string& name, const std::string& help,
                                         const std::string& labels, MetricKind kind,
                                         const std::vector<double>& bounds) {
  const auto [it, added] = index_.try_emplace({name, labels}, series_.size());
  if (!added) {
    const MetricSnapshot& existing = series_[it->second];
    PARVA_REQUIRE(existing.kind == kind,
                  "metric re-registered with a different kind: " + name);
    PARVA_REQUIRE(existing.bounds == bounds,
                  "histogram re-registered with different bounds: " + name);
    return it->second;
  }
  MetricSnapshot& series = series_.emplace_back();
  series.name = name;
  series.help = help;
  series.labels = labels;
  series.kind = kind;
  series.bounds = bounds;
  if (kind == MetricKind::kHistogram) series.bucket_counts.assign(bounds.size() + 1, 0.0);
  return it->second;
}

Counter MetricsRegistry::counter(const std::string& name, const std::string& help,
                                 const std::string& labels) {
  MutexLock lock(mutex_);
  return Counter(this, find_or_add(name, help, labels, MetricKind::kCounter, {}));
}

Gauge MetricsRegistry::gauge(const std::string& name, const std::string& help,
                             const std::string& labels) {
  MutexLock lock(mutex_);
  return Gauge(this, find_or_add(name, help, labels, MetricKind::kGauge, {}));
}

HistogramMetric MetricsRegistry::histogram(const std::string& name,
                                           std::vector<double> bounds,
                                           const std::string& help,
                                           const std::string& labels) {
  PARVA_REQUIRE(!bounds.empty(), "histogram needs at least one bucket bound");
  PARVA_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
                "histogram bounds must be ascending");
  MutexLock lock(mutex_);
  return HistogramMetric(this,
                         find_or_add(name, help, labels, MetricKind::kHistogram, bounds));
}

std::vector<double> MetricsRegistry::default_latency_buckets_ms() {
  return {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0};
}

std::vector<MetricSnapshot> MetricsRegistry::scrape() const {
  MutexLock lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [key, index] : index_) out.push_back(series_[index]);
  return out;
}

std::size_t MetricsRegistry::series_count() const {
  MutexLock lock(mutex_);
  return series_.size();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // One add per series per merge, so the order of merges fixes every sum
  // (run_seeds merges in seed order).
  const std::vector<MetricSnapshot> incoming = other.scrape();
  MutexLock lock(mutex_);
  for (const MetricSnapshot& from : incoming) {
    MetricSnapshot& into =
        series_[find_or_add(from.name, from.help, from.labels, from.kind, from.bounds)];
    switch (from.kind) {
      case MetricKind::kCounter:
        into.value += from.value;
        break;
      case MetricKind::kGauge:
        into.value = from.value;
        break;
      case MetricKind::kHistogram:
        for (std::size_t b = 0; b < from.bucket_counts.size(); ++b) {
          into.bucket_counts[b] += from.bucket_counts[b];
        }
        into.sum += from.sum;
        into.count += from.count;
        break;
    }
  }
}

}  // namespace parva::telemetry

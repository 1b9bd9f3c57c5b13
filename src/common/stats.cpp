#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace parva {

double sorted_sum(std::vector<double> values) {
  // Sorting the raw bit patterns (not the doubles) keeps the order total
  // even when NaNs slip in, and orders equal-magnitude values of either
  // sign consistently across platforms.
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  std::sort(bits.begin(), bits.end());
  double sum = 0.0;
  for (const std::uint64_t b : bits) sum += std::bit_cast<double>(b);
  return sum;
}

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void Samples::merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::min() const {
  PARVA_REQUIRE(!values_.empty(), "Samples::min on empty set");
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  PARVA_REQUIRE(!values_.empty(), "Samples::max on empty set");
  return *std::max_element(values_.begin(), values_.end());
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  PARVA_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  // Empty sets report 0.0 like mean(): callers aggregate outcomes where a
  // service can legitimately complete zero requests (e.g. every unit lost
  // mid-run), and that must not abort the whole report.
  if (values_.empty()) return 0.0;
  ensure_sorted();
  if (values_.size() == 1) return values_[0];
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Samples::fraction_above(double threshold) const {
  if (values_.empty()) return 0.0;
  std::size_t above = 0;
  for (double v : values_) {
    if (v > threshold) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(values_.size());
}

}  // namespace parva

// Streaming and batch statistics used by the profiler, the discrete-event
// simulator, and the benches (mean, variance, percentiles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace parva {

/// Canonical-order floating-point sum: sorts the values by IEEE-754 bit
/// pattern, then adds left to right. Double addition is not associative,
/// so the same multiset summed in two different orders can differ in the
/// last ulp; sorting first makes the result a pure function of the
/// multiset, which is what every exporter on the byte-identical path
/// needs (DESIGN.md §4.9, audit rule R14). Takes the vector by value --
/// the sort is destructive and callers usually pass a scratch buffer.
double sorted_sum(std::vector<double> values);

/// Welford-style streaming moments. O(1) space; numerically stable.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Exact running sum. Not reconstructed as mean * count: the Welford mean
  /// carries a rounding error that `* count` amplifies across long merge
  /// chains, while adding each sample (and each merged partial sum) once
  /// keeps sum() within one ulp-per-term of the true total.
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch sample container with percentile queries. Stores all samples;
/// intended for per-run latency distributions (≤ a few million points).
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double x) { values_.push_back(x); sorted_ = false; }
  void merge(const Samples& other);

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  /// Percentile in [0,100]; linear interpolation between closest ranks.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }

  /// Fraction of samples strictly above `threshold`.
  double fraction_above(double threshold) const;

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace parva

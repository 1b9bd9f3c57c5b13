// Indexed profile surfaces: the planning fast path.
//
// A ProfileTable is a flat list of (instance size, batch, process count)
// operating points; every scheduler query against it is a full scan. A
// ProfileSurface indexes one table once so the hot planning queries become
// cheap lookups:
//
//   * a dense (g, b, p) -> point array gives O(1) exact-coordinate lookup —
//     this is also the memoized form of AnalyticalPerfModel::evaluate over
//     the profiling grid (the surface stores the evaluated PerfPoint of
//     every feasible grid coordinate);
//   * per (instance size, process cap), the feasible points are sorted by
//     latency with a prefix-argmax of throughput, so "best triplet under a
//     latency bound" (Optimal Triplet Decision) is one binary search
//     instead of a table scan.
//
// Query results are pointer-identical in value to what the reference scans
// over the backing table produce — ties between equal-throughput points
// resolve to the earliest table entry, exactly as a first-wins linear scan
// does — so the fast path is provably behavior-preserving (see
// tests/profiler/profile_surface_test.cpp for the differential suite).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "profiler/profile_types.hpp"

namespace parva::profiler {

class ProfileSurface {
 public:
  ProfileSurface() = default;
  /// Indexes `table`. The surface copies the points, so the table may go
  /// away afterwards.
  explicit ProfileSurface(const ProfileTable& table);

  const std::string& model() const { return model_; }
  std::size_t size() const { return points_.size(); }
  const std::vector<ProfilePoint>& points() const { return points_; }

  /// O(1) exact-coordinate lookup (nullptr off the grid). Mirrors
  /// ProfileTable::find, including returning OOM points.
  const ProfilePoint* find(int gpcs, int batch, int procs) const;

  /// Maximum-throughput feasible point for `gpcs` with `procs <= procs_cap`
  /// and `latency_ms < latency_bound_ms` (strict, as Optimal Triplet
  /// Decision requires). nullptr when nothing qualifies. O(log points).
  const ProfilePoint* best_below(int gpcs, int procs_cap, double latency_bound_ms) const;

  /// The distinct instance sizes present on the surface, ascending.
  const std::vector<int>& instance_sizes() const { return sizes_; }
  /// The distinct process counts present, ascending.
  const std::vector<int>& process_counts() const { return procs_; }

 private:
  struct Shelf {
    /// Candidate point indices sorted by (latency, table order); only
    /// feasible (non-OOM) points appear.
    std::vector<std::uint32_t> by_latency;
    /// Latencies of by_latency, for branch-free binary search.
    std::vector<double> latencies;
    /// prefix_best[k]: index of the best point among by_latency[0..k] by
    /// (throughput desc, table order asc) — the same winner a first-wins
    /// max-throughput scan over that subset picks.
    std::vector<std::uint32_t> prefix_best;
  };

  const Shelf* shelf_for(int gpcs, int procs_cap) const;
  const ProfilePoint* best_with_end(const Shelf* shelf, std::size_t end) const;

  std::string model_;
  std::vector<ProfilePoint> points_;
  std::vector<int> sizes_;    ///< distinct gpcs, ascending
  std::vector<int> batches_;  ///< distinct batch sizes, ascending
  std::vector<int> procs_;    ///< distinct process counts, ascending
  /// Dense [size][batch][proc] -> point index (-1 when absent).
  std::vector<std::int32_t> dense_;
  /// shelves_[size_index * procs_.size() + cap_index].
  std::vector<Shelf> shelves_;
};

/// Surfaces for a set of models, with O(1) model lookup.
class ProfileSurfaceSet {
 public:
  ProfileSurfaceSet() = default;
  /// Indexes every table of `profiles`.
  explicit ProfileSurfaceSet(const ProfileSet& profiles);

  void add(ProfileSurface surface);
  const ProfileSurface* find(const std::string& model) const;
  std::size_t size() const { return surfaces_.size(); }
  const std::vector<ProfileSurface>& surfaces() const { return surfaces_; }

 private:
  std::vector<ProfileSurface> surfaces_;
  std::unordered_map<std::string, std::size_t> by_model_;
};

}  // namespace parva::profiler

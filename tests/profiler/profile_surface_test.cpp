// Differential suite for the indexed profile surfaces: every query must be
// value-identical (bit-for-bit on the doubles) to the reference scan over
// the backing ProfileTable — the proof obligation of the planning fast
// path.
#include "profiler/profile_surface.hpp"

#include <gtest/gtest.h>

#include "profiler/profiler.hpp"

namespace parva::profiler {
namespace {

const ProfileSet& builtin_profiles() {
  static const ProfileSet profiles = [] {
    perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
    Profiler profiler(perf);
    return profiler.profile_all(perfmodel::ModelCatalog::builtin().names());
  }();
  return profiles;
}

const ProfileSurfaceSet& builtin_surfaces() {
  static const ProfileSurfaceSet surfaces{builtin_profiles()};
  return surfaces;
}

/// Exact (bit-level) equality of two profile points. EXPECT_EQ on doubles
/// is exact comparison, which is the point: the surface stores copies of
/// the table's points, not re-derived values.
void expect_same_point(const ProfilePoint* got, const ProfilePoint* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (got == nullptr) return;
  EXPECT_EQ(got->model, want->model);
  EXPECT_EQ(got->gpcs, want->gpcs);
  EXPECT_EQ(got->batch, want->batch);
  EXPECT_EQ(got->procs, want->procs);
  EXPECT_EQ(got->oom, want->oom);
  EXPECT_EQ(got->throughput, want->throughput);
  EXPECT_EQ(got->latency_ms, want->latency_ms);
  EXPECT_EQ(got->sm_occupancy, want->sm_occupancy);
  EXPECT_EQ(got->memory_gib, want->memory_gib);
}

/// Reference scan: first-wins max-throughput over feasible points of one
/// instance size, with a process cap and a strict latency bound. This is
/// the loop the surface's prefix-argmax replaces.
const ProfilePoint* reference_best(const ProfileTable& table, int gpcs, int procs_cap,
                                   double bound_ms) {
  const ProfilePoint* best = nullptr;
  for (const ProfilePoint& point : table.points()) {
    if (point.oom || point.gpcs != gpcs || point.procs > procs_cap) continue;
    if (point.latency_ms >= bound_ms) continue;
    if (best == nullptr || point.throughput > best->throughput) best = &point;
  }
  return best;
}

TEST(ProfileSurfaceTest, IndexesEveryBuiltinModel) {
  const ProfileSet& profiles = builtin_profiles();
  const ProfileSurfaceSet& surfaces = builtin_surfaces();
  ASSERT_EQ(surfaces.size(), profiles.size());
  for (const ProfileTable& table : profiles.tables()) {
    const ProfileSurface* surface = surfaces.find(table.model());
    ASSERT_NE(surface, nullptr) << table.model();
    EXPECT_EQ(surface->size(), table.size());
    EXPECT_EQ(surface->model(), table.model());
  }
  EXPECT_EQ(surfaces.find("not-a-model"), nullptr);
}

TEST(ProfileSurfaceTest, FindMatchesTableOverFullGrid) {
  for (const ProfileTable& table : builtin_profiles().tables()) {
    const ProfileSurface* surface = builtin_surfaces().find(table.model());
    ASSERT_NE(surface, nullptr);
    // Every on-grid coordinate, including OOM points ...
    for (const ProfilePoint& point : table.points()) {
      expect_same_point(surface->find(point.gpcs, point.batch, point.procs),
                        table.find(point.gpcs, point.batch, point.procs));
    }
    // ... and off-grid coordinates miss on both.
    EXPECT_EQ(surface->find(5, 16, 1), table.find(5, 16, 1));
    EXPECT_EQ(surface->find(1, 3, 1), table.find(1, 3, 1));
    EXPECT_EQ(surface->find(1, 16, 4), table.find(1, 16, 4));
    EXPECT_EQ(surface->find(0, 0, 0), table.find(0, 0, 0));
  }
}

TEST(ProfileSurfaceTest, PointsMatchModelEvaluation) {
  // The surface doubles as the memoized form of evaluate_mig over the
  // profiling grid: every stored feasible point must be bit-identical to a
  // fresh model evaluation at that coordinate.
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  for (const ProfileSurface& surface : builtin_surfaces().surfaces()) {
    for (const ProfilePoint& point : surface.points()) {
      const auto result = perf.evaluate_mig(surface.model(), point.gpcs, point.batch,
                                            point.procs);
      if (point.oom) {
        EXPECT_FALSE(result.ok());
        continue;
      }
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(point.throughput, result.value().throughput);
      EXPECT_EQ(point.latency_ms, result.value().latency_ms);
      EXPECT_EQ(point.sm_occupancy, result.value().sm_occupancy);
      EXPECT_EQ(point.memory_gib, result.value().memory_gib);
    }
  }
}

TEST(ProfileSurfaceTest, BestBelowMatchesReferenceScan) {
  for (const ProfileTable& table : builtin_profiles().tables()) {
    const ProfileSurface* surface = builtin_surfaces().find(table.model());
    ASSERT_NE(surface, nullptr);
    for (int gpcs : surface->instance_sizes()) {
      for (int cap = 1; cap <= 3; ++cap) {
        // Bounds that straddle every decision boundary: each point's exact
        // latency (strictness matters there), just above it, and the
        // extremes.
        std::vector<double> bounds = {0.0, 1e9};
        for (const ProfilePoint& point : table.points()) {
          bounds.push_back(point.latency_ms);
          bounds.push_back(point.latency_ms * 1.0000001);
        }
        for (double bound : bounds) {
          expect_same_point(surface->best_below(gpcs, cap, bound),
                            reference_best(table, gpcs, cap, bound));
        }
      }
    }
  }
}

TEST(ProfileSurfaceTest, ThroughputTiesResolveToEarliestTableEntry) {
  // Synthetic table with deliberate throughput ties: a first-wins linear
  // scan keeps the earliest entry, and the surface must do the same.
  ProfileTable table("tie-model");
  auto point = [](int gpcs, int batch, int procs, double tput, double lat) {
    ProfilePoint p;
    p.model = "tie-model";
    p.gpcs = gpcs;
    p.batch = batch;
    p.procs = procs;
    p.throughput = tput;
    p.latency_ms = lat;
    return p;
  };
  table.add(point(2, 1, 1, 100.0, 5.0));
  table.add(point(2, 2, 1, 100.0, 4.0));  // same throughput, lower latency
  table.add(point(2, 4, 1, 100.0, 5.0));  // exact tie with the first entry
  table.add(point(2, 8, 1, 90.0, 1.0));
  const ProfileSurface surface(table);

  for (double bound : {2.0, 4.5, 5.5, 10.0}) {
    expect_same_point(surface.best_below(2, 1, bound),
                      reference_best(table, 2, 1, bound));
  }
  // The tie at bound 10 must pick batch=1 (earliest), not batch=2 or 4.
  const ProfilePoint* best = surface.best_below(2, 1, 10.0);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->batch, 1);
}

}  // namespace
}  // namespace parva::profiler

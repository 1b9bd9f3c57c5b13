#include "profiler/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "profiler/profile_surface.hpp"

namespace parva::profiler {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
  Profiler profiler_{perf_};
};

TEST_F(ProfilerTest, GridDimensionsMatchPaper) {
  // Section III-C: |I|=5, |B|=8, P=3.
  EXPECT_EQ(profiler_.grid_points(), 5u * 8u * 3u);
  const ProfileTable table = profiler_.profile("inceptionv3");
  EXPECT_EQ(table.size(), 120u);
}

TEST_F(ProfilerTest, OomPointsRecordedNotSkipped) {
  const ProfileTable table = profiler_.profile("inceptionv3");
  const ProfilePoint* point = table.find(1, 128, 3);
  ASSERT_NE(point, nullptr);
  EXPECT_TRUE(point->oom);
  EXPECT_DOUBLE_EQ(point->throughput, 0.0);
}

TEST_F(ProfilerTest, FeasiblePointsMatchModel) {
  const ProfileTable table = profiler_.profile("resnet-50");
  const ProfilePoint* point = table.find(2, 16, 2);
  ASSERT_NE(point, nullptr);
  ASSERT_FALSE(point->oom);
  const auto expected = perf_.evaluate_mig("resnet-50", 2, 16, 2).value();
  EXPECT_DOUBLE_EQ(point->throughput, expected.throughput);
  EXPECT_DOUBLE_EQ(point->latency_ms, expected.latency_ms);
}

TEST_F(ProfilerTest, BestBelowRespectsLatencyBound) {
  const ProfileSurface surface(profiler_.profile("vgg-19"));
  const ProfilePoint* strict = surface.best_below(1, 3, 50.0);
  const ProfilePoint* loose = surface.best_below(1, 3, 500.0);
  ASSERT_NE(loose, nullptr);
  if (strict != nullptr) {
    EXPECT_LT(strict->latency_ms, 50.0);
    EXPECT_LE(strict->throughput, loose->throughput);
  }
  EXPECT_EQ(surface.best_below(1, 3, 0.001), nullptr);
}

TEST_F(ProfilerTest, BestOverallDominatesPerSize) {
  // The best feasible point under the bound, over the whole grid, is the
  // best of some instance size: the per-size answers cover every point.
  const ProfileTable table = profiler_.profile("mobilenetv2");
  const ProfilePoint* overall = nullptr;
  for (const ProfilePoint& point : table.points()) {
    if (point.oom || point.latency_ms >= 100.0) continue;
    if (overall == nullptr || point.throughput > overall->throughput) overall = &point;
  }
  ASSERT_NE(overall, nullptr);
  const ProfileSurface surface(table);
  double best_per_size = 0.0;
  for (int g : {1, 2, 3, 4, 7}) {
    const ProfilePoint* per_size = surface.best_below(g, 3, 100.0);
    if (per_size == nullptr) continue;
    EXPECT_LE(per_size->throughput, overall->throughput);
    best_per_size = std::max(best_per_size, per_size->throughput);
  }
  EXPECT_EQ(best_per_size, overall->throughput);
}

TEST_F(ProfilerTest, ProfileAllCoversCatalog) {
  const auto names = perfmodel::ModelCatalog::builtin().names();
  const ProfileSet set = profiler_.profile_all(names);
  EXPECT_EQ(set.size(), names.size());
  for (const auto& name : names) {
    ASSERT_NE(set.find(name), nullptr) << name;
  }
  EXPECT_EQ(set.find("nope"), nullptr);
}

TEST_F(ProfilerTest, ParallelProfileMatchesSerial) {
  const auto names = perfmodel::ModelCatalog::builtin().names();
  ThreadPool pool(4);
  const ProfileSet parallel = profiler_.profile_all(names, pool);
  const ProfileSet serial = profiler_.profile_all(names);
  ASSERT_EQ(parallel.size(), serial.size());
  for (const auto& name : names) {
    const ProfileTable* a = parallel.find(name);
    const ProfileTable* b = serial.find(name);
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
      EXPECT_DOUBLE_EQ(a->points()[i].throughput, b->points()[i].throughput);
    }
  }
}

TEST_F(ProfilerTest, CustomGridOptions) {
  ProfilerOptions options;
  options.batch_sizes = {4, 16};
  options.max_processes = 2;
  options.instance_sizes = {1, 7};
  Profiler custom(perf_, options);
  EXPECT_EQ(custom.grid_points(), 2u * 2u * 2u);
  const ProfileTable table = custom.profile("resnet-50");
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.find(2, 4, 1), nullptr);  // size 2 not profiled
}

}  // namespace
}  // namespace parva::profiler

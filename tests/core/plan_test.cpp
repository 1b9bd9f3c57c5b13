#include "core/plan.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::triplet;

TEST(GpuPlanTest, PlaceUsesPreferredSlots) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place(0, triplet(3, 100)));
  EXPECT_EQ(gpu.segments().front().placement.start_slot, 4);  // 3g -> slot 4
  ASSERT_TRUE(gpu.try_place(1, triplet(2, 100)));
  EXPECT_EQ(gpu.segments().back().placement.start_slot, 0);
}

TEST(GpuPlanTest, DeclinesSecondThreeGpcSegment) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place(0, triplet(3, 100)));
  // Slot 4 taken; 3@0 is declined by policy (Section III-E1).
  EXPECT_FALSE(gpu.try_place(1, triplet(3, 100)));
}

TEST(GpuPlanTest, ExplicitPlacement) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place_at(0, triplet(3, 100), 0));  // legal on hardware
  EXPECT_EQ(gpu.allocated_gpcs(), 3);
  EXPECT_EQ(gpu.occupied_slots(), 4);  // 3@0 blocks four slots
  EXPECT_FALSE(gpu.try_place_at(1, triplet(2, 100), 2));  // overlap
  EXPECT_FALSE(gpu.try_place_at(1, triplet(2, 100), 1));  // illegal start
}

TEST(GpuPlanTest, RemoveSegmentFreesSlots) {
  GpuPlan gpu(0);
  ASSERT_TRUE(gpu.try_place(0, triplet(4, 100)));
  ASSERT_TRUE(gpu.try_place(1, triplet(3, 100)));
  EXPECT_FALSE(gpu.can_fit(1));
  const PlacedSegment removed = gpu.remove_segment(0);
  EXPECT_EQ(removed.triplet.gpcs, 4);
  EXPECT_TRUE(gpu.can_fit(4));
  EXPECT_EQ(gpu.allocated_gpcs(), 3);
}

TEST(GpuPlanTest, RemoveOutOfRangeThrows) {
  GpuPlan gpu(0);
  EXPECT_THROW(gpu.remove_segment(0), std::logic_error);
}

TEST(DeploymentPlanTest, FirstFitAppendsWhenFull) {
  DeploymentPlan plan;
  EXPECT_EQ(plan.place_first_fit(0, triplet(7, 100)), 0u);
  EXPECT_EQ(plan.place_first_fit(1, triplet(7, 100)), 1u);
  EXPECT_EQ(plan.place_first_fit(2, triplet(1, 100)), 2u);
  EXPECT_EQ(plan.gpu_count(), 3u);
}

TEST(DeploymentPlanTest, FirstFitFillsEarlierGaps) {
  DeploymentPlan plan;
  plan.place_first_fit(0, triplet(4, 100));  // GPU0 slots 0-3
  plan.place_first_fit(1, triplet(7, 100));  // GPU1 (doesn't fit GPU0)
  plan.place_first_fit(2, triplet(3, 100));  // back into GPU0 slot 4
  EXPECT_EQ(plan.gpu_count(), 2u);
  EXPECT_EQ(plan.gpu(0).allocated_gpcs(), 7);
}

TEST(DeploymentPlanTest, FirstFitFromSkipsEarlierGpus) {
  DeploymentPlan plan;
  plan.place_first_fit(0, triplet(4, 100));
  plan.place_first_fit(1, triplet(4, 100));
  EXPECT_EQ(plan.place_first_fit(2, triplet(2, 100), 1), 1u);  // GPU0 also fits
  EXPECT_EQ(plan.place_first_fit(3, triplet(2, 100), 2), 2u);  // appends
  EXPECT_THROW(plan.place_first_fit(4, triplet(1, 100), 4), std::logic_error);
}

// ALLOCATION resumes each size queue's search where the previous segment
// of that size landed. Twin plans see the same seeded runs of same-size
// placements, one resuming and one scanning from GPU 0, with segments
// removed between runs as Reconfigurer::update_service and Allocation
// Optimization remove them; both must agree on every placement.
TEST(DeploymentPlanTest, ResumedFirstFitMatchesScanFromZero) {
  constexpr int kSizes[] = {1, 2, 3, 4, 7};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    DeploymentPlan resumed;
    DeploymentPlan scanned;
    int next_id = 0;
    for (int run = 0; run < 30; ++run) {
      const int gpcs = kSizes[rng.uniform_int(0, 4)];
      const std::uint64_t count = rng.uniform_int(1, 12);
      std::size_t cursor = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const int id = next_id++;
        cursor = resumed.place_first_fit(id, triplet(gpcs, 100), cursor);
        ASSERT_EQ(cursor, scanned.place_first_fit(id, triplet(gpcs, 100)))
            << "seed " << seed << " run " << run << " size " << gpcs;
      }
      ASSERT_EQ(resumed.to_string(), scanned.to_string()) << "seed " << seed << " run " << run;

      // Remove single segments, or dissolve a whole GPU.
      const std::uint64_t removals = rng.uniform_int(0, 6);
      for (std::uint64_t r = 0; r < removals; ++r) {
        const std::size_t g = rng.uniform_int(0, resumed.gpu_count() - 1);
        const bool dissolve = rng.uniform_int(0, 3) == 0;
        while (!resumed.gpu(g).empty()) {
          const std::size_t s = rng.uniform_int(0, resumed.gpu(g).segments().size() - 1);
          resumed.gpu(g).remove_segment(s);
          scanned.gpu(g).remove_segment(s);
          if (!dissolve) break;
        }
      }
    }
  }
}

TEST(DeploymentPlanTest, CompactDropsEmptyAndRenumbers) {
  DeploymentPlan plan;
  plan.place_first_fit(0, triplet(7, 100));
  plan.place_first_fit(1, triplet(7, 100));
  plan.place_first_fit(2, triplet(7, 100));
  plan.gpu(1).remove_segment(0);
  plan.compact();
  ASSERT_EQ(plan.gpu_count(), 2u);
  EXPECT_EQ(plan.gpu(0).id(), 0);
  EXPECT_EQ(plan.gpu(1).id(), 1);
  EXPECT_EQ(plan.gpus_in_use(), 2u);
}

TEST(DeploymentPlanTest, Accounting) {
  DeploymentPlan plan;
  plan.place_first_fit(0, triplet(4, 100));
  plan.place_first_fit(1, triplet(2, 50));
  EXPECT_EQ(plan.total_allocated_gpcs(), 6);
  EXPECT_EQ(plan.all_segments().size(), 2u);
  EXPECT_EQ(plan.gpus_in_use(), 1u);
}

TEST(DeploymentPlanTest, ToStringListsLayout) {
  DeploymentPlan plan;
  plan.place_first_fit(3, triplet(4, 100));
  const std::string text = plan.to_string();
  EXPECT_NE(text.find("s3:4@0"), std::string::npos);
}

TEST(DeploymentPlanTest, EmptyPlanToString) {
  const DeploymentPlan plan;
  EXPECT_EQ(plan.to_string(), "empty-plan");
}

}  // namespace
}  // namespace parva::core

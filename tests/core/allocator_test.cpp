#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/configurator.hpp"
#include "tests/core/allocator_oracle.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_surfaces;
using testing::copy_then_optimize;
using testing::dump;
using testing::service;
using testing::triplet;

/// Builds a hand-crafted configured service (no profiles needed).
ConfiguredService configured(int id, int opt_gpcs, double opt_tp, int num_opt,
                             std::optional<Triplet> last = std::nullopt,
                             std::optional<Triplet> small1 = std::nullopt,
                             std::optional<Triplet> small2 = std::nullopt) {
  ConfiguredService c;
  c.spec = service(id, "synthetic", 100, opt_tp * num_opt);
  c.opt_seg = triplet(opt_gpcs, opt_tp);
  c.num_opt_seg = num_opt;
  c.last_seg = last;
  c.opt_tri_array[0] = small1;
  c.opt_tri_array[1] = small2;
  const int idx = instance_size_index(opt_gpcs);
  if (idx >= 0) c.opt_tri_array[static_cast<std::size_t>(idx)] = c.opt_seg;
  return c;
}

/// Invariant checker: every GPU layout must be geometrically valid.
void expect_valid(const DeploymentPlan& plan) {
  for (const auto& gpu : plan.gpus()) {
    std::uint8_t mask = 0;
    for (const auto& segment : gpu.segments()) {
      ASSERT_TRUE(gpu::is_legal_placement(segment.placement)) << gpu.to_string();
      ASSERT_EQ(mask & segment.placement.slot_mask(), 0) << gpu.to_string();
      mask |= segment.placement.slot_mask();
    }
    ASSERT_EQ(mask, gpu.occupied_mask());
  }
}

TEST(AllocatorTest, RelocationPlacesEverySegment) {
  SegmentAllocator allocator;
  const std::vector<ConfiguredService> services = {
      configured(0, 4, 1000, 2, triplet(1, 100)),
      configured(1, 3, 800, 1),
      configured(2, 2, 500, 3),
  };
  const auto plan = allocator.segment_relocation(services);
  ASSERT_TRUE(plan.ok());
  expect_valid(plan.value());
  // 2x4g + 1x1g + 1x3g + 3x2g = 7 segments.
  EXPECT_EQ(plan.value().all_segments().size(), 7u);
  EXPECT_EQ(plan.value().total_allocated_gpcs(), 2 * 4 + 1 + 3 + 3 * 2);
}

TEST(AllocatorTest, LargestSegmentsPlacedFirst) {
  SegmentAllocator allocator;
  const std::vector<ConfiguredService> services = {
      configured(0, 1, 100, 3),  // enqueued first but smallest
      configured(1, 7, 1000, 1),
      configured(2, 4, 500, 1),
      configured(3, 3, 400, 1),
  };
  const auto plan = allocator.segment_relocation(services).value();
  expect_valid(plan);
  // 7g fills GPU0; 4g starts GPU1; 3g joins it at slot 4; 1g segments fill
  // GPU2 (left block first).
  ASSERT_GE(plan.gpu_count(), 2u);
  EXPECT_EQ(plan.gpu(0).segments().front().triplet.gpcs, 7);
  EXPECT_EQ(plan.gpu(1).allocated_gpcs(), 7);  // 4 + 3
}

TEST(AllocatorTest, OptimizationConsolidatesLoneThreeGpcGpus) {
  // Two services whose demand produces 3-GPC segments: relocation leaves
  // one GPU per 3g segment (3@0 is declined), optimization re-expresses
  // them into 1/2-GPC segments and consolidates.
  const Triplet small1 = triplet(1, 260);
  const Triplet small2 = triplet(2, 540);
  std::vector<ConfiguredService> services;
  for (int id = 0; id < 4; ++id) {
    services.push_back(configured(id, 3, 750, 1, std::nullopt, small1, small2));
  }
  AllocatorOptions options;
  options.optimize = false;
  const auto unoptimized = SegmentAllocator(options).allocate(services).value();
  EXPECT_EQ(unoptimized.gpu_count(), 4u);  // one lone 3@4 per GPU

  const auto optimized = SegmentAllocator().allocate(services).value();
  expect_valid(optimized);
  EXPECT_LT(optimized.gpu_count(), unoptimized.gpu_count());
  // Throughput coverage preserved for every service.
  std::map<int, double> capacity;
  for (const auto& [gpu, segment] : optimized.all_segments()) {
    capacity[segment->service_id] += segment->triplet.throughput;
  }
  for (const auto& s : services) {
    EXPECT_GE(capacity[s.spec.id] + 1e-9, 750.0) << "service " << s.spec.id;
  }
}

TEST(AllocatorTest, OptimizationSkipsServicesWithoutSmallTriplets) {
  // A service whose only triplet is 3-GPC cannot be re-expressed; its
  // segments must stay in place.
  std::vector<ConfiguredService> services = {configured(0, 3, 750, 1)};
  const auto plan = SegmentAllocator().allocate(services).value();
  ASSERT_EQ(plan.all_segments().size(), 1u);
  EXPECT_EQ(plan.all_segments()[0].second->triplet.gpcs, 3);
}

TEST(AllocatorTest, OptimizationNeverUsesMoreGpus) {
  for (int mix = 0; mix < 8; ++mix) {
    std::vector<ConfiguredService> services;
    const Triplet small1 = triplet(1, 100);
    const Triplet small2 = triplet(2, 210);
    services.push_back(configured(0, (mix % 2 != 0) ? 4 : 3, 900, 1 + mix % 3,
                                  std::nullopt, small1, small2));
    services.push_back(
        configured(1, (mix % 3 == 0) ? 7 : 2, 800, 1 + mix % 2, triplet(1, 90), small1));
    AllocatorOptions unopt;
    unopt.optimize = false;
    const auto before = SegmentAllocator(unopt).allocate(services).value();
    const auto after = SegmentAllocator().allocate(services).value();
    EXPECT_LE(after.gpu_count(), before.gpu_count()) << "mix " << mix;
    expect_valid(after);
  }
}

TEST(AllocatorTest, SurplusCarriesAcrossGpus) {
  // Hand-built map: an anchor GPU {4g(B), 1g(C)} (5 GPCs: not dissolvable)
  // offers exactly two single-slot gaps; service A holds lone-3g GPUs 1
  // and 2. A's 1-GPC triplet delivers 700 req/s vs the 3-GPC segment's
  // 750, so the first dissolution (GPU2) produces 2 smalls (surplus 650)
  // which land in the anchor's gaps; the carried surplus then lets GPU1's
  // dissolution cover its 750 with a single small segment: 3 total, where
  // an unledgered re-expression would need 2 + 2 = 4.
  const Triplet small1 = triplet(1, 700);
  const std::vector<ConfiguredService> services = {
      configured(0, 3, 750, 2, std::nullopt, small1),
      configured(1, 4, 900, 1),
      configured(2, 1, 100, 1),
  };
  DeploymentPlan plan;
  plan.gpus().emplace_back(0);
  plan.gpus().emplace_back(1);
  plan.gpus().emplace_back(2);
  ASSERT_TRUE(plan.gpu(0).try_place_at(1, triplet(4, 900), 0));
  ASSERT_TRUE(plan.gpu(0).try_place_at(2, triplet(1, 100), 4));
  ASSERT_TRUE(plan.gpu(1).try_place_at(0, triplet(3, 750), 4));
  ASSERT_TRUE(plan.gpu(2).try_place_at(0, triplet(3, 750), 4));

  const DeploymentPlan optimized =
      SegmentAllocator().allocation_optimization(std::move(plan), services);
  expect_valid(optimized);
  double capacity_a = 0.0;
  int small_count_a = 0;
  for (const auto& [gpu, segment] : optimized.all_segments()) {
    if (segment->service_id != 0) continue;
    capacity_a += segment->triplet.throughput;
    if (segment->triplet.gpcs == 1) ++small_count_a;
  }
  EXPECT_GE(capacity_a + 1e-9, 1500.0);
  EXPECT_EQ(small_count_a, 3);
  EXPECT_EQ(optimized.gpu_count(), 2u);  // one lone-3g GPU dissolved away
}

TEST(AllocatorTest, OptimizationRollsBackWhenItWouldUseMoreGpus) {
  // A lone 4g segment at 1,000 req/s whose only small triplet is a 1g at
  // 100 req/s re-expresses as ten 1g segments, which need a second GPU:
  // stage 2 returns its input, compacted.
  const std::vector<ConfiguredService> services = {
      configured(0, 4, 1000, 1, std::nullopt, triplet(1, 100))};
  EXPECT_EQ(SegmentAllocator::small_segments(services[0], 1000).size(), 10u);
  DeploymentPlan plan;
  plan.gpus().emplace_back(0);  // empty, so compaction drops it
  plan.gpus().emplace_back(1);
  ASSERT_TRUE(plan.gpu(1).try_place_at(0, triplet(4, 1000), 0));

  const DeploymentPlan optimized = SegmentAllocator().allocation_optimization(plan, services);
  EXPECT_EQ(optimized.to_string(), "GPU0{s0:4@0}");
  EXPECT_EQ(dump(optimized), dump(copy_then_optimize(plan, services)));
  EXPECT_EQ(SegmentAllocator().allocate(services).value().to_string(), "GPU0{s0:4@0}");
}

TEST(AllocatorTest, RollbackUndoesSmallSegmentsOnEarlierGpus) {
  // A no-small-triplet anchor B (4g) on GPU0 leaves three free slots. GPU2's
  // lone A (3g; 1g at 700 req/s) dissolves first and its two 1g segments
  // land on GPU0; GPU1's C (4g at 1,000 req/s; 1g at 40) then needs 25 1g
  // segments: one on GPU0, seven each on GPU1, GPU2 and the trailing empty
  // GPU3, and three on an appended GPU4. Five GPUs in use against the
  // input's three, so every step is undone and compaction drops GPU3-4.
  const std::vector<ConfiguredService> services = {
      configured(0, 3, 750, 1, std::nullopt, triplet(1, 700)),
      configured(1, 4, 900, 1),
      configured(2, 4, 1000, 1, std::nullopt, triplet(1, 40)),
  };
  DeploymentPlan plan;
  for (int id = 0; id < 4; ++id) plan.gpus().emplace_back(id);
  ASSERT_TRUE(plan.gpu(0).try_place_at(1, triplet(4, 900), 0));
  ASSERT_TRUE(plan.gpu(1).try_place_at(2, triplet(4, 1000), 0));
  ASSERT_TRUE(plan.gpu(2).try_place_at(0, triplet(3, 750), 4));

  const DeploymentPlan optimized = SegmentAllocator().allocation_optimization(plan, services);
  EXPECT_EQ(optimized.to_string(), "GPU0{s1:4@0} GPU1{s2:4@0} GPU2{s0:3@4}");
  EXPECT_EQ(dump(optimized), dump(copy_then_optimize(plan, services)));
  expect_valid(optimized);

  // Without C the same first step stands: A's small segments join GPU0.
  DeploymentPlan without_c = plan;
  without_c.gpu(1).remove_segment(0);
  const DeploymentPlan kept =
      SegmentAllocator().allocation_optimization(without_c, services);
  EXPECT_EQ(kept.gpu_count(), 1u);
  EXPECT_EQ(dump(kept), dump(copy_then_optimize(without_c, services)));
}

TEST(AllocatorTest, RollbackRestoresAGpuThatTookSmallSegmentsBeforeDissolving) {
  // GPU0 is full (7g anchor). GPU2's A (1g) re-expresses as one 1g, which
  // lands on GPU1 beside C's 3g; GPU1 (4 GPCs) is then dissolved with A's
  // new segment on it. C (3g at 200 req/s; 1g at 10) needs twenty 1g
  // segments, so the map would grow to four GPUs and the rollback must
  // restore GPU1 as it was when dissolved, then pop A's segment from it.
  const std::vector<ConfiguredService> services = {
      configured(0, 1, 100, 1),
      configured(1, 7, 2000, 1),
      configured(2, 3, 200, 1, std::nullopt, triplet(1, 10)),
  };
  DeploymentPlan plan;
  for (int id = 0; id < 3; ++id) plan.gpus().emplace_back(id);
  ASSERT_TRUE(plan.gpu(0).try_place_at(1, triplet(7, 2000), 0));
  ASSERT_TRUE(plan.gpu(1).try_place_at(2, triplet(3, 200), 4));
  ASSERT_TRUE(plan.gpu(2).try_place_at(0, triplet(1, 100), 6));

  const DeploymentPlan optimized = SegmentAllocator().allocation_optimization(plan, services);
  EXPECT_EQ(optimized.to_string(), plan.to_string());
  EXPECT_EQ(dump(optimized), dump(plan));
  EXPECT_EQ(dump(optimized), dump(copy_then_optimize(plan, services)));
}

TEST(AllocatorTest, RollbackPopsSmallSegmentsFromACandidateNothingLeft) {
  // GPU0 is full (7g anchor B). GPU2 holds N's lone 3g; N has no 1g/2g
  // triplet, so the pass visits GPU2 first, frees nothing and journals
  // nothing. GPU1's A (3g at 100 req/s; 1g at `small_rate`) then dissolves
  // and its 1g segments fill GPU1, spill into GPU2's four free slots, and
  // beyond. At 5 req/s that is twenty 1g segments and five GPUs against
  // three, so the pass rolls back: the segments on the un-journaled GPU2
  // are popped like any placement and the input comes back exactly. At
  // 10 req/s the ten segments fit GPU1 and GPU2 and the result is kept.
  for (const double small_rate : {5.0, 10.0}) {
    const std::vector<ConfiguredService> services = {
        configured(0, 3, 100, 1, std::nullopt, triplet(1, small_rate)),
        configured(1, 7, 2000, 1),
        configured(2, 3, 750, 1),
    };
    DeploymentPlan plan;
    for (int id = 0; id < 3; ++id) plan.gpus().emplace_back(id);
    ASSERT_TRUE(plan.gpu(0).try_place_at(1, triplet(7, 2000), 0));
    ASSERT_TRUE(plan.gpu(1).try_place_at(0, triplet(3, 100), 4));
    ASSERT_TRUE(plan.gpu(2).try_place_at(2, triplet(3, 750), 4));

    const DeploymentPlan optimized = SegmentAllocator().allocation_optimization(plan, services);
    expect_valid(optimized);
    EXPECT_EQ(dump(optimized), dump(copy_then_optimize(plan, services))) << small_rate;
    if (small_rate == 5.0) {
      EXPECT_EQ(dump(optimized), dump(plan));
    } else {
      EXPECT_EQ(optimized.to_string(),
                "GPU0{s1:7@0} GPU1{s0:1@0 s0:1@1 s0:1@2 s0:1@3 s0:1@4 s0:1@5 s0:1@6} "
                "GPU2{s2:3@4 s0:1@0 s0:1@1 s0:1@2}");
    }
  }
}

TEST(AllocatorTest, RepeatedIdResolvesToTheFirstServiceOnEitherLookupPath) {
  // Service id 0 appears twice: first with 1g/2g triplets, last with none.
  // GPU0 holds id 0's lone 3g; behind it, `fillers` GPUs each hold a 4g of
  // a service without small triplets, so the pass looks up every filler
  // (and frees nothing) before it reaches GPU0. With no fillers, id 0 is
  // found by the front-to-back scan; with 30, the 32 services give a scan
  // budget of 2 * bit_width(32) = 12 lookups, and id 0 is found through
  // the sorted index. Either way the first service wins, as in
  // copy_then_optimize: its 3g re-expresses as a 2g and a 1g on GPU0.
  for (const int fillers : {0, 30}) {
    std::vector<ConfiguredService> services = {
        configured(0, 3, 750, 1, std::nullopt, triplet(1, 260), triplet(2, 540))};
    DeploymentPlan plan;
    plan.gpus().emplace_back(0);
    ASSERT_TRUE(plan.gpu(0).try_place_at(0, triplet(3, 750), 4));
    for (int f = 1; f <= fillers; ++f) {
      services.push_back(configured(f, 4, 900, 1));
      plan.gpus().emplace_back(f);
      ASSERT_TRUE(plan.gpu(static_cast<std::size_t>(f)).try_place_at(f, triplet(4, 900), 0));
    }
    services.push_back(configured(0, 3, 750, 1));

    const DeploymentPlan optimized = SegmentAllocator().allocation_optimization(plan, services);
    EXPECT_EQ(dump(optimized), dump(copy_then_optimize(plan, services))) << fillers;
    ASSERT_EQ(optimized.gpu_count(), static_cast<std::size_t>(fillers) + 1);
    EXPECT_EQ(optimized.gpu(0).to_string(), "GPU0{s0:2@0 s0:1@2}") << fillers;
  }
}

TEST(AllocatorTest, ThresholdZeroDisablesDissolution) {
  std::vector<ConfiguredService> services = {
      configured(0, 3, 750, 1, std::nullopt, triplet(1, 260), triplet(2, 540))};
  AllocatorOptions options;
  options.optimization_threshold_gpcs = 0;
  const auto plan = SegmentAllocator(options).allocate(services).value();
  ASSERT_EQ(plan.all_segments().size(), 1u);
  EXPECT_EQ(plan.all_segments()[0].second->triplet.gpcs, 3);
}

TEST(AllocatorTest, PlaceServiceIsIncremental) {
  SegmentAllocator allocator;
  std::vector<ConfiguredService> services = {configured(0, 4, 1000, 1)};
  DeploymentPlan plan = allocator.allocate(services).value();
  const auto before = plan.all_segments().size();
  const auto added = configured(1, 3, 500, 1);
  ASSERT_TRUE(allocator.place_service(plan, added).ok());
  EXPECT_EQ(plan.all_segments().size(), before + 1);
  // The 3g lands beside the 4g on GPU0.
  EXPECT_EQ(plan.gpu_count(), 1u);
  expect_valid(plan);
}

TEST(AllocatorTest, EndToEndWithRealProfiles) {
  SegmentConfigurator configurator;
  const std::vector<ServiceSpec> specs = {
      service(0, "resnet-50", 205, 4196),    service(1, "vgg-19", 397, 2296),
      service(2, "mobilenetv2", 167, 7513),  service(3, "bert-large", 6434, 1264),
      service(4, "inceptionv3", 419, 5722),
  };
  const auto configured_set = configurator.configure(specs, builtin_surfaces()).value();
  const auto plan = SegmentAllocator().allocate(configured_set).value();
  expect_valid(plan);
  // Every configured segment is placed.
  std::size_t expected = 0;
  for (const auto& c : configured_set) {
    expected += static_cast<std::size_t>(c.num_opt_seg) + (c.last_seg.has_value() ? 1 : 0);
  }
  // Optimization may change the segment count (re-expression) but coverage
  // must hold per service.
  std::map<int, double> capacity;
  for (const auto& [gpu, segment] : plan.all_segments()) {
    capacity[segment->service_id] += segment->triplet.throughput;
  }
  for (const auto& spec : specs) {
    EXPECT_GE(capacity[spec.id] + 1e-6, spec.request_rate) << spec.model;
  }
}

}  // namespace
}  // namespace parva::core

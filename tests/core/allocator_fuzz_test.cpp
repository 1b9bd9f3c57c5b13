// Randomised property tests for the Configurator+Allocator pipeline:
// seeded fuzzing over service mixes drawn from the real profile grid.
// Invariants checked on every draw:
//   * every GPU layout is geometrically legal (no slot overlap),
//   * every service's placed capacity covers its request rate,
//   * every placed segment respects the internal latency bound,
//   * Allocation Optimization never uses more GPUs than relocation alone,
//   * Segment Relocation, whose first-fit search resumes per size queue,
//     places exactly as a first-fit scan from GPU 0 for every segment,
//   * in-place Allocation Optimization, with its undo journal, returns
//     exactly what running it on a copy of the map and keeping the copy
//     only when it uses no more GPUs returns, at several thresholds (also
//     on the relocated S7 LLM folds).
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/rng.hpp"
#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/allocator_oracle.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_surfaces;

struct FuzzDraw {
  std::vector<ServiceSpec> services;
};

FuzzDraw draw_services(Rng& rng) {
  static const std::vector<std::string> models =
      perfmodel::ModelCatalog::builtin().names();
  FuzzDraw draw;
  const auto count = rng.uniform_int(1, 14);
  for (std::uint64_t i = 0; i < count; ++i) {
    ServiceSpec spec;
    spec.id = static_cast<int>(i);
    spec.model = models[rng.uniform_int(0, models.size() - 1)];
    // SLOs from generous to tight; rates across four orders of magnitude.
    spec.slo_latency_ms = rng.uniform(40.0, 8000.0);
    spec.request_rate = std::exp(rng.uniform(std::log(2.0), std::log(20000.0)));
    draw.services.push_back(std::move(spec));
  }
  return draw;
}

void check_plan(const DeploymentPlan& plan, const std::vector<ConfiguredService>& configured,
                std::uint64_t seed) {
  // Geometric validity.
  for (const auto& gpu : plan.gpus()) {
    std::uint8_t mask = 0;
    for (const auto& segment : gpu.segments()) {
      ASSERT_TRUE(gpu::is_legal_placement(segment.placement))
          << "seed " << seed << " " << gpu.to_string();
      ASSERT_EQ(mask & segment.placement.slot_mask(), 0)
          << "seed " << seed << " " << gpu.to_string();
      mask |= segment.placement.slot_mask();
    }
  }
  // Coverage and latency bounds.
  std::map<int, double> capacity;
  for (const auto& [gpu_index, segment] : plan.all_segments()) {
    capacity[segment->service_id] += segment->triplet.throughput;
  }
  for (const ConfiguredService& service : configured) {
    EXPECT_GE(capacity[service.spec.id] + 1e-6, service.spec.request_rate)
        << "seed " << seed << " service " << service.spec.model;
  }
  for (const auto& [gpu_index, segment] : plan.all_segments()) {
    const auto it =
        std::find_if(configured.begin(), configured.end(), [&](const ConfiguredService& c) {
          return c.spec.id == segment->service_id;
        });
    ASSERT_NE(it, configured.end());
    EXPECT_LT(segment->triplet.latency_ms, it->spec.slo_latency_ms * 0.5)
        << "seed " << seed;
  }
}

/// Linear-scan oracle for Segment Relocation: the same size queues
/// (largest size first, enqueue order kept), each segment placed by a
/// first-fit scan from GPU 0.
DeploymentPlan linear_scan_relocation(const std::vector<ConfiguredService>& services) {
  std::map<int, std::vector<Segment>, std::greater<int>> queues;
  for (const ConfiguredService& service : services) {
    for (int i = 0; i < service.num_opt_seg; ++i) {
      queues[service.opt_seg.gpcs].push_back(Segment{service.spec.id, service.opt_seg});
    }
    if (service.last_seg.has_value()) {
      queues[service.last_seg->gpcs].push_back(Segment{service.spec.id, *service.last_seg});
    }
  }
  DeploymentPlan plan;
  for (const auto& [gpcs, queue] : queues) {
    for (const Segment& segment : queue) {
      plan.place_first_fit(segment.service_id, segment.triplet);
    }
  }
  return plan;
}

TEST(AllocatorCursorTest, RelocationMatchesLinearScanOracleAtFleetScale) {
  SegmentConfigurator configurator;
  SegmentAllocator allocator;
  for (const int fold : {70, 150}) {
    const auto fleet = scenarios::scale_scenario(scenarios::scenario("S5"), fold);
    auto configured = configurator.configure(fleet.services, builtin_surfaces());
    ASSERT_TRUE(configured.ok()) << "fold " << fold;
    const auto relocated = allocator.segment_relocation(configured.value());
    ASSERT_TRUE(relocated.ok());
    EXPECT_EQ(relocated.value().to_string(),
              linear_scan_relocation(configured.value()).to_string())
        << "fold " << fold;
  }
}

TEST(AllocatorCursorTest, OptimizationMatchesCopyThenOptimizeOnS7Folds) {
  // S7 leaves most GPUs light, so nearly every GPU is a candidate and the
  // pass's first-fit cursors, lazily journaled GPUs and service lookups
  // (past the linear budget from x10 on) all get exercised. Folds x1, x10
  // and x60 in catalog order, plus x60 shuffled, at three thresholds.
  SegmentConfigurator configurator;
  SegmentAllocator allocator;
  struct Fold {
    int fold;
    bool shuffled;
  };
  for (const Fold f : {Fold{1, false}, Fold{10, false}, Fold{60, false}, Fold{60, true}}) {
    std::vector<ServiceSpec> services =
        scenarios::scale_scenario(scenarios::llm_scenario(), f.fold).services;
    if (f.shuffled) {
      Rng rng(60);
      for (std::size_t i = services.size(); i > 1; --i) {
        std::swap(services[i - 1], services[rng.uniform_int(0, i - 1)]);
      }
    }
    const std::string label = "fold " + std::to_string(f.fold) + (f.shuffled ? " shuffled" : "");
    auto configured = configurator.configure(services, testing::llm_surfaces());
    ASSERT_TRUE(configured.ok()) << label;
    const auto relocated = allocator.segment_relocation(configured.value());
    ASSERT_TRUE(relocated.ok()) << label;
    for (const int threshold : {2, 4, 7}) {
      AllocatorOptions options;
      options.optimization_threshold_gpcs = threshold;
      EXPECT_EQ(testing::dump(SegmentAllocator(options).allocation_optimization(
                    relocated.value(), configured.value())),
                testing::dump(testing::copy_then_optimize(relocated.value(), configured.value(),
                                                          threshold)))
          << label << " threshold " << threshold;
    }
  }
}

class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorFuzz, InvariantsHoldOnRandomMixes) {
  Rng rng(GetParam());
  SegmentConfigurator configurator;
  SegmentAllocator optimizing;
  AllocatorOptions unopt_options;
  unopt_options.optimize = false;
  SegmentAllocator relocation_only(unopt_options);

  for (int round = 0; round < 12; ++round) {
    const FuzzDraw draw = draw_services(rng);
    auto configured = configurator.configure(draw.services, builtin_surfaces());
    if (!configured.ok()) continue;  // infeasible SLO drawn: fine

    const auto optimized = optimizing.allocate(configured.value());
    const auto relocated = relocation_only.allocate(configured.value());
    ASSERT_TRUE(optimized.ok());
    ASSERT_TRUE(relocated.ok());
    check_plan(optimized.value(), configured.value(), GetParam());
    check_plan(relocated.value(), configured.value(), GetParam());
    const auto stage1 = optimizing.segment_relocation(configured.value());
    ASSERT_TRUE(stage1.ok());
    EXPECT_EQ(stage1.value().to_string(),
              linear_scan_relocation(configured.value()).to_string())
        << "seed " << GetParam() << " round " << round;
    EXPECT_LE(optimized.value().gpus_in_use(), relocated.value().gpus_in_use())
        << "seed " << GetParam() << " round " << round;
    for (const int threshold : {2, 4, 7}) {
      AllocatorOptions options;
      options.optimization_threshold_gpcs = threshold;
      EXPECT_EQ(testing::dump(SegmentAllocator(options).allocation_optimization(
                    stage1.value(), configured.value())),
                testing::dump(testing::copy_then_optimize(stage1.value(), configured.value(),
                                                          threshold)))
          << "seed " << GetParam() << " round " << round << " threshold " << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

}  // namespace
}  // namespace parva::core

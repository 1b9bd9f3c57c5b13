#include "baselines/mig_serving.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/parvagpu.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/test_support.hpp"

namespace parva::baselines {
namespace {

using core::testing::builtin_profiles;

class MigServingTest : public ::testing::Test {
 protected:
  MigServingScheduler scheduler_{builtin_profiles()};
};

TEST_F(MigServingTest, AllScenariosFeasible) {
  for (const auto& sc : scenarios::all_scenarios()) {
    EXPECT_TRUE(scheduler_.schedule(sc.services).ok()) << sc.name;
  }
}

TEST_F(MigServingTest, NoMpsSingleProcessPerInstance) {
  const auto result = scheduler_.schedule(scenarios::scenario("S2").services).value();
  EXPECT_TRUE(result.deployment.uses_mig);
  for (const auto& unit : result.deployment.units) {
    EXPECT_EQ(unit.procs, 1);
    ASSERT_TRUE(unit.placement.has_value());
    EXPECT_TRUE(gpu::is_legal_placement(*unit.placement));
  }
}

TEST_F(MigServingTest, PlacementsNeverOverlap) {
  const auto result = scheduler_.schedule(scenarios::scenario("S4").services).value();
  std::map<int, std::uint8_t> masks;
  for (const auto& unit : result.deployment.units) {
    const std::uint8_t mask = unit.placement->slot_mask();
    EXPECT_EQ(masks[unit.gpu_index] & mask, 0) << "GPU " << unit.gpu_index;
    masks[unit.gpu_index] |= mask;
  }
}

TEST_F(MigServingTest, OverAllocatesDemand) {
  // The safety-factored ceil must provision visibly more capacity than the
  // rate — the paper's internal-slack source.
  const auto& services = scenarios::scenario("S2").services;
  const auto result = scheduler_.schedule(services).value();
  double total_capacity = 0.0;
  double total_rate = 0.0;
  for (const auto& spec : services) {
    const double capacity = result.deployment.service_capacity(spec.id);
    EXPECT_GE(capacity, spec.request_rate) << spec.model;
    total_capacity += capacity;
    total_rate += spec.request_rate;
  }
  EXPECT_GT(total_capacity, 1.3 * total_rate);
}

TEST_F(MigServingTest, AbsorbsFreeSlotsIntoReplicas) {
  // Every used GPU ends with no legal room for even a 1-GPC instance
  // (fragmentation converted to slack, as the paper's scoring does).
  const auto result = scheduler_.schedule(scenarios::scenario("S2").services).value();
  std::map<int, std::uint8_t> masks;
  for (const auto& unit : result.deployment.units) {
    masks[unit.gpu_index] |= unit.placement->slot_mask();
  }
  for (const auto& [gpu, mask] : masks) {
    EXPECT_FALSE(gpu::find_start_slot(mask, 1).has_value()) << "GPU " << gpu;
  }
}

TEST_F(MigServingTest, UsesMoreGpusThanParvaGpu) {
  core::ParvaGpuScheduler parva(builtin_profiles());
  for (const char* name : {"S2", "S5"}) {
    const auto& services = scenarios::scenario(name).services;
    const auto mig = scheduler_.schedule(services).value();
    const auto ours = parva.schedule(services).value();
    EXPECT_GT(mig.deployment.gpu_count, ours.deployment.gpu_count) << name;
  }
}

TEST_F(MigServingTest, SlowModeNeverWorseThanFast) {
  MigServingOptions slow_options;
  slow_options.mode = MigServingMode::kSlow;
  slow_options.annealing_iterations = 1500;
  MigServingScheduler slow(builtin_profiles(), slow_options);
  EXPECT_EQ(slow.name(), "MIG-serving-slow");
  for (const char* name : {"S2", "S5"}) {
    const auto& services = scenarios::scenario(name).services;
    const auto fast_result = scheduler_.schedule(services).value();
    const auto slow_result = slow.schedule(services).value();
    EXPECT_LE(slow_result.deployment.gpu_count, fast_result.deployment.gpu_count) << name;
    // The slow search costs far more scheduling time.
    EXPECT_GT(slow_result.scheduling_delay_ms, 3.0 * fast_result.scheduling_delay_ms) << name;
    // And its deployment still covers every service.
    for (const auto& spec : services) {
      EXPECT_GE(slow_result.deployment.service_capacity(spec.id), spec.request_rate)
          << name << " " << spec.model;
    }
  }
}

TEST_F(MigServingTest, SlowModeIsDeterministicPerSeed) {
  MigServingOptions options;
  options.mode = MigServingMode::kSlow;
  options.annealing_iterations = 500;
  MigServingScheduler a(builtin_profiles(), options);
  MigServingScheduler b(builtin_profiles(), options);
  const auto& services = scenarios::scenario("S3").services;
  EXPECT_EQ(a.schedule(services).value().deployment.gpu_count,
            b.schedule(services).value().deployment.gpu_count);
}

TEST_F(MigServingTest, InfeasibleSloRejected) {
  const std::vector<core::ServiceSpec> impossible = {{0, "bert-large", 1.0, 10}};
  const auto result = scheduler_.schedule(impossible);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCapacityExceeded);
}

}  // namespace
}  // namespace parva::baselines

#include "core/reconfigure.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "core/parvagpu.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/allocator_oracle.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;
using testing::builtin_surfaces;
using testing::service;

class ReconfigureTest : public ::testing::Test {
 protected:
  ReconfigureTest() : reconfigurer_(SegmentConfigurator(), SegmentAllocator()) {}

  void schedule(const std::vector<ServiceSpec>& services) {
    ParvaGpuScheduler scheduler(builtin_profiles());
    auto result = scheduler.schedule(services);
    ASSERT_TRUE(result.ok());
    plan_ = scheduler.last_plan();
    configured_ = scheduler.last_configured();
  }

  double capacity_of(int service_id) const {
    double total = 0.0;
    for (const auto& [gpu, segment] : plan_.all_segments()) {
      if (segment->service_id == service_id) total += segment->triplet.throughput;
    }
    return total;
  }

  Reconfigurer reconfigurer_;
  DeploymentPlan plan_;
  std::vector<ConfiguredService> configured_;
};

TEST_F(ReconfigureTest, RateIncreaseAddsCapacity) {
  schedule({service(0, "resnet-50", 205, 829), service(1, "vgg-19", 397, 354)});
  const ServiceSpec updated = service(0, "resnet-50", 205, 3000);
  const auto stats =
      reconfigurer_.update_service(plan_, configured_, updated, builtin_surfaces());
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(capacity_of(0) + 1e-6, 3000.0);
  EXPECT_GE(capacity_of(1) + 1e-6, 354.0);  // the other service is untouched
  EXPECT_GT(stats.value().segments_removed, 0);
  EXPECT_GT(stats.value().segments_added, 0);
}

TEST_F(ReconfigureTest, SloTighteningReconfigures) {
  schedule({service(0, "inceptionv3", 419, 460), service(1, "mobilenetv2", 167, 677)});
  // Tighten inception's SLO to S5 levels; segments must be rebuilt with
  // latency below the new internal bound.
  const ServiceSpec updated = service(0, "inceptionv3", 146, 460);
  ASSERT_TRUE(
      reconfigurer_.update_service(plan_, configured_, updated, builtin_surfaces()).ok());
  for (const auto& [gpu, segment] : plan_.all_segments()) {
    if (segment->service_id == 0) {
      EXPECT_LT(segment->triplet.latency_ms, 73.0);
    }
  }
  EXPECT_GE(capacity_of(0) + 1e-6, 460.0);
}

TEST_F(ReconfigureTest, OtherServicesKeepTheirOperatingPoints) {
  schedule({service(0, "resnet-50", 205, 829), service(1, "vgg-19", 397, 354),
            service(2, "bert-large", 6434, 19)});
  std::map<int, std::vector<int>> before;
  for (const auto& [gpu, segment] : plan_.all_segments()) {
    if (segment->service_id != 0) before[segment->service_id].push_back(segment->triplet.batch);
  }
  const ServiceSpec updated = service(0, "resnet-50", 205, 1500);
  ASSERT_TRUE(
      reconfigurer_.update_service(plan_, configured_, updated, builtin_surfaces()).ok());
  std::map<int, std::vector<int>> after;
  for (const auto& [gpu, segment] : plan_.all_segments()) {
    if (segment->service_id != 0) after[segment->service_id].push_back(segment->triplet.batch);
  }
  EXPECT_EQ(before, after);
}

TEST_F(ReconfigureTest, AddBrandNewService) {
  schedule({service(0, "resnet-50", 205, 829)});
  const ServiceSpec fresh = service(7, "densenet-121", 183, 353);
  const auto stats =
      reconfigurer_.update_service(plan_, configured_, fresh, builtin_surfaces());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().segments_removed, 0);
  EXPECT_GT(stats.value().segments_added, 0);
  EXPECT_GE(capacity_of(7) + 1e-6, 353.0);
  EXPECT_EQ(configured_.size(), 2u);
}

TEST_F(ReconfigureTest, InfeasibleUpdateLeavesPlanUsable) {
  schedule({service(0, "resnet-50", 205, 829)});
  const ServiceSpec impossible = service(0, "resnet-50", 0.5, 829);
  const auto stats =
      reconfigurer_.update_service(plan_, configured_, impossible, builtin_surfaces());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code(), ErrorCode::kCapacityExceeded);
  // The failure happened before any mutation: the old placement survives.
  EXPECT_GE(capacity_of(0) + 1e-6, 829.0);
}

TEST_F(ReconfigureTest, InvalidSloOrRateIsRefusedAndChangesNothing) {
  schedule({service(0, "resnet-50", 205, 829), service(1, "vgg-19", 397, 354)});
  const std::string plan_before = testing::dump(plan_);
  const std::vector<ConfiguredService> configured_before = configured_;
  for (const ServiceSpec& bad :
       {service(0, "resnet-50", std::numeric_limits<double>::quiet_NaN(), 829),
        service(0, "resnet-50", std::numeric_limits<double>::infinity(), 829),
        service(1, "vgg-19", 397, -1), service(5, "vgg-19", -5, 354)}) {
    const auto stats = reconfigurer_.update_service(plan_, configured_, bad, builtin_surfaces());
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(testing::dump(plan_), plan_before);
    ASSERT_EQ(configured_.size(), configured_before.size());
    for (std::size_t i = 0; i < configured_.size(); ++i) {
      EXPECT_EQ(configured_[i].spec.id, configured_before[i].spec.id);
      EXPECT_EQ(configured_[i].spec.slo_latency_ms, configured_before[i].spec.slo_latency_ms);
      EXPECT_EQ(configured_[i].spec.request_rate, configured_before[i].spec.request_rate);
      EXPECT_EQ(configured_[i].total_gpcs(), configured_before[i].total_gpcs());
    }
  }
}

TEST_F(ReconfigureTest, RateDecreaseShrinksFootprint) {
  schedule({service(0, "mobilenetv2", 167, 7513), service(1, "vgg-19", 397, 354)});
  const int before = plan_.total_allocated_gpcs();
  const ServiceSpec updated = service(0, "mobilenetv2", 167, 500);
  ASSERT_TRUE(
      reconfigurer_.update_service(plan_, configured_, updated, builtin_surfaces()).ok());
  EXPECT_LT(plan_.total_allocated_gpcs(), before);
  EXPECT_GE(capacity_of(0) + 1e-6, 500.0);
}

TEST(ReconfigureStreamTest, MatchesCopyThenOptimizeOracleOverASeededStream) {
  // 300 seeded SLO/rate updates on S5 x70 (770 services), each applied to
  // the fleet's plan through the indexed surfaces and to a twin plan through
  // the table-scan, copy-then-optimize oracle; plans and stats must agree
  // after every update.
  const auto fleet = scenarios::scale_scenario(scenarios::scenario("S5"), 70);
  ParvaGpuScheduler scheduler(builtin_profiles());
  ASSERT_TRUE(scheduler.schedule(fleet.services).ok());
  DeploymentPlan plan = scheduler.last_plan();
  std::vector<ConfiguredService> configured = scheduler.last_configured();
  DeploymentPlan oracle_plan = plan;
  std::vector<ConfiguredService> oracle_configured = configured;
  const Reconfigurer reconfigurer{SegmentConfigurator(), SegmentAllocator()};

  Rng rng(70);
  int applied = 0;
  for (int u = 0; u < 300; ++u) {
    ServiceSpec spec =
        fleet.services[static_cast<std::size_t>(rng.uniform_int(0, fleet.services.size() - 1))];
    spec.request_rate *= rng.uniform(0.3, 3.0);
    spec.slo_latency_ms *= rng.uniform(0.8, 1.5);
    const auto stats = reconfigurer.update_service(plan, configured, spec, builtin_surfaces());
    const auto expected =
        testing::reference_update(oracle_plan, oracle_configured, spec, builtin_profiles());
    ASSERT_EQ(stats.ok(), expected.ok()) << "update " << u;
    if (stats.ok()) {
      ++applied;
      EXPECT_EQ(stats.value().segments_removed, expected.value().segments_removed) << u;
      EXPECT_EQ(stats.value().segments_added, expected.value().segments_added) << u;
      EXPECT_EQ(stats.value().segments_untouched, expected.value().segments_untouched) << u;
    }
    ASSERT_EQ(plan.to_string(), oracle_plan.to_string()) << "update " << u;
  }
  EXPECT_GT(applied, 250);
  EXPECT_EQ(testing::dump(plan), testing::dump(oracle_plan));
}

TEST(ReconfigureStreamTest, S7MatchesCopyThenOptimizeOracleOverASeededStream) {
  // 150 seeded SLO/rate updates on S7 x60 (300 LLM services), where nearly
  // every GPU is an Allocation Optimization candidate and each pass looks
  // up more services than its linear budget; checked against the
  // table-scan, copy-then-optimize oracle on the LLM profiles.
  const auto fleet = scenarios::scale_scenario(scenarios::llm_scenario(), 60);
  ParvaGpuScheduler scheduler(testing::llm_profiles());
  ASSERT_TRUE(scheduler.schedule(fleet.services).ok());
  DeploymentPlan plan = scheduler.last_plan();
  std::vector<ConfiguredService> configured = scheduler.last_configured();
  DeploymentPlan oracle_plan = plan;
  std::vector<ConfiguredService> oracle_configured = configured;
  const Reconfigurer reconfigurer{SegmentConfigurator(), SegmentAllocator()};

  Rng rng(60);
  int applied = 0;
  for (int u = 0; u < 150; ++u) {
    ServiceSpec spec =
        fleet.services[static_cast<std::size_t>(rng.uniform_int(0, fleet.services.size() - 1))];
    spec.request_rate *= rng.uniform(0.3, 3.0);
    spec.slo_latency_ms *= rng.uniform(0.8, 1.5);
    const auto stats =
        reconfigurer.update_service(plan, configured, spec, testing::llm_surfaces());
    const auto expected = testing::reference_update(oracle_plan, oracle_configured, spec,
                                                    testing::llm_profiles());
    ASSERT_EQ(stats.ok(), expected.ok()) << "update " << u;
    if (stats.ok()) {
      ++applied;
      EXPECT_EQ(stats.value().segments_removed, expected.value().segments_removed) << u;
      EXPECT_EQ(stats.value().segments_added, expected.value().segments_added) << u;
      EXPECT_EQ(stats.value().segments_untouched, expected.value().segments_untouched) << u;
    }
    ASSERT_EQ(plan.to_string(), oracle_plan.to_string()) << "update " << u;
  }
  EXPECT_GT(applied, 120);
  EXPECT_EQ(testing::dump(plan), testing::dump(oracle_plan));
}

TEST(ReconfigureOptionsTest, UnoptimizedAllocatorKeepsLightGpusThroughAnUpdate) {
  // Relocation alone leaves S4 with lone-3g GPUs (3 GPCs: under the
  // Allocation Optimization threshold). An update of another service
  // through a reconfigurer built on an unoptimized allocator must leave
  // such a light GPU as it is.
  ParvaGpuOptions options;
  options.optimize_allocation = false;
  ParvaGpuScheduler scheduler(builtin_profiles(), options);
  const std::vector<ServiceSpec>& services = scenarios::scenario("S4").services;
  ASSERT_TRUE(scheduler.schedule(services).ok());
  const std::string light = "GPU1{s1:3@4}";
  ASSERT_NE(scheduler.last_plan().to_string().find(light), std::string::npos);

  ServiceSpec updated = services.back();
  updated.request_rate *= 1.1;
  AllocatorOptions unoptimized;
  unoptimized.optimize = false;
  const Reconfigurer reconfigurer{SegmentConfigurator(), SegmentAllocator(unoptimized)};
  DeploymentPlan plan = scheduler.last_plan();
  std::vector<ConfiguredService> configured = scheduler.last_configured();
  ASSERT_TRUE(reconfigurer.update_service(plan, configured, updated, builtin_surfaces()).ok());
  EXPECT_NE(plan.to_string().find(light), std::string::npos) << plan.to_string();

  // The default reconfigurer dissolves that GPU on the same update.
  DeploymentPlan optimized = scheduler.last_plan();
  std::vector<ConfiguredService> optimized_configured = scheduler.last_configured();
  ASSERT_TRUE(Reconfigurer(SegmentConfigurator(), SegmentAllocator())
                  .update_service(optimized, optimized_configured, updated, builtin_surfaces())
                  .ok());
  EXPECT_EQ(optimized.to_string().find(light), std::string::npos) << optimized.to_string();
}

}  // namespace
}  // namespace parva::core

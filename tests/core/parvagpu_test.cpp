#include "core/parvagpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/metrics.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;
using testing::service;

std::vector<ServiceSpec> sample_services() {
  return {
      service(0, "resnet-50", 205, 829),  service(1, "inceptionv3", 419, 460),
      service(2, "mobilenetv2", 167, 677), service(3, "bert-large", 6434, 19),
      service(4, "vgg-19", 397, 354),
  };
}

TEST(ParvaGpuSchedulerTest, NamesReflectVariant) {
  ParvaGpuOptions single;
  single.use_mps = false;
  ParvaGpuOptions unopt;
  unopt.optimize_allocation = false;
  EXPECT_EQ(ParvaGpuScheduler(builtin_profiles()).name(), "ParvaGPU");
  EXPECT_EQ(ParvaGpuScheduler(builtin_profiles(), single).name(), "ParvaGPU-single");
  EXPECT_EQ(ParvaGpuScheduler(builtin_profiles(), unopt).name(), "ParvaGPU-unoptimized");
}

TEST(ParvaGpuSchedulerTest, ScheduleProducesCoveringDeployment) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto result = scheduler.schedule(sample_services());
  ASSERT_TRUE(result.ok());
  const Deployment& deployment = result.value().deployment;
  EXPECT_TRUE(deployment.uses_mig);
  EXPECT_GT(deployment.gpu_count, 0);
  for (const auto& spec : sample_services()) {
    EXPECT_GE(deployment.service_capacity(spec.id) + 1e-6, spec.request_rate) << spec.model;
  }
  EXPECT_GE(result.value().scheduling_delay_ms, 0.0);
}

TEST(ParvaGpuSchedulerTest, MigUnitsHaveNoInterference) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto result = scheduler.schedule(sample_services()).value();
  for (const DeployedUnit& unit : result.deployment.units) {
    EXPECT_DOUBLE_EQ(unit.actual_throughput, unit.planned_throughput);
    EXPECT_DOUBLE_EQ(unit.actual_latency_ms, unit.planned_latency_ms);
    ASSERT_TRUE(unit.placement.has_value());
    EXPECT_TRUE(gpu::is_legal_placement(*unit.placement));
    EXPECT_FALSE(unit.model.empty());
  }
}

TEST(ParvaGpuSchedulerTest, UnitsCarryTheirServicesModel) {
  // Reversed, so a service's position in the input differs from its id.
  std::vector<ServiceSpec> services =
      scenarios::scale_scenario(scenarios::scenario("S5"), 10).services;
  std::reverse(services.begin(), services.end());
  std::map<int, std::string> model_of;
  for (const ServiceSpec& spec : services) model_of.emplace(spec.id, spec.model);
  ASSERT_EQ(model_of.size(), services.size());

  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto result = scheduler.schedule(services).value();
  ASSERT_FALSE(result.deployment.units.empty());
  for (const DeployedUnit& unit : result.deployment.units) {
    ASSERT_TRUE(model_of.contains(unit.service_id)) << unit.service_id;
    EXPECT_EQ(unit.model, model_of.at(unit.service_id)) << "service " << unit.service_id;
  }
}

TEST(ParvaGpuSchedulerTest, RepeatedServiceIdIsRefusedBeforePlanning) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  ASSERT_TRUE(scheduler.schedule(sample_services()).ok());
  const std::string plan_before = scheduler.last_plan().to_string();

  // Positions 3 and 5 both repeat an earlier id; the first repeat is named.
  std::vector<ServiceSpec> services = sample_services();
  services.push_back(service(9, "vgg-16", 400, 410));
  services[3].id = 1;
  services[5].id = 0;
  const auto result = scheduler.schedule(services);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(result.error().message().find("service 1 at position 3"), std::string::npos)
      << result.error().message();
  EXPECT_EQ(scheduler.last_plan().to_string(), plan_before);

  services[3].id = 3;
  services[5].id = 5;
  EXPECT_TRUE(scheduler.schedule(services).ok());
}

TEST(ParvaGpuSchedulerTest, UnitsRespectSloLatencyBound) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto services = sample_services();
  const auto result = scheduler.schedule(services).value();
  std::map<int, double> slo;
  for (const auto& spec : services) slo[spec.id] = spec.slo_latency_ms;
  for (const DeployedUnit& unit : result.deployment.units) {
    EXPECT_LT(unit.actual_latency_ms, slo[unit.service_id] * 0.5);
  }
}

TEST(ParvaGpuSchedulerTest, SingleVariantUsesOneProcessEverywhere) {
  ParvaGpuOptions options;
  options.use_mps = false;
  ParvaGpuScheduler scheduler(builtin_profiles(), options);
  const auto result = scheduler.schedule(sample_services()).value();
  for (const DeployedUnit& unit : result.deployment.units) {
    EXPECT_EQ(unit.procs, 1);
  }
}

TEST(ParvaGpuSchedulerTest, MpsVariantNeverWorseThanSingle) {
  ParvaGpuScheduler mps(builtin_profiles());
  ParvaGpuOptions so;
  so.use_mps = false;
  ParvaGpuScheduler single(builtin_profiles(), so);
  for (const char* scenario_slo : {"tight", "loose"}) {
    const double factor = std::string(scenario_slo) == "tight" ? 0.35 : 1.0;
    std::vector<ServiceSpec> services;
    for (const auto& base : sample_services()) {
      ServiceSpec spec = base;
      spec.slo_latency_ms *= factor;
      spec.request_rate *= 4.0;
      services.push_back(spec);
    }
    const auto mps_result = mps.schedule(services);
    const auto single_result = single.schedule(services);
    if (!mps_result.ok() || !single_result.ok()) continue;
    EXPECT_LE(mps_result.value().deployment.gpu_count,
              single_result.value().deployment.gpu_count)
        << scenario_slo;
  }
}

TEST(ParvaGpuSchedulerTest, OptimizedNeverWorseThanUnoptimized) {
  ParvaGpuScheduler optimized(builtin_profiles());
  ParvaGpuOptions uo;
  uo.optimize_allocation = false;
  ParvaGpuScheduler unoptimized(builtin_profiles(), uo);
  const auto services = sample_services();
  EXPECT_LE(optimized.schedule(services).value().deployment.gpu_count,
            unoptimized.schedule(services).value().deployment.gpu_count);
}

TEST(ParvaGpuSchedulerTest, InfeasibleSloSurfacesError) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  const std::vector<ServiceSpec> impossible = {service(0, "vgg-19", 0.5, 10)};
  const auto result = scheduler.schedule(impossible);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCapacityExceeded);
}

TEST(ParvaGpuSchedulerTest, DeterministicAcrossRuns) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto a = scheduler.schedule(sample_services()).value();
  const auto b = scheduler.schedule(sample_services()).value();
  ASSERT_EQ(a.deployment.units.size(), b.deployment.units.size());
  EXPECT_EQ(a.deployment.gpu_count, b.deployment.gpu_count);
  for (std::size_t i = 0; i < a.deployment.units.size(); ++i) {
    EXPECT_EQ(a.deployment.units[i].gpu_index, b.deployment.units[i].gpu_index);
    EXPECT_EQ(a.deployment.units[i].batch, b.deployment.units[i].batch);
  }
}

TEST(ParvaGpuSchedulerTest, EmptyServiceSet) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto result = scheduler.schedule({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().deployment.gpu_count, 0);
  EXPECT_TRUE(result.value().deployment.units.empty());
}

TEST(ParvaGpuSchedulerTest, LastPlanMatchesDeployment) {
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto result = scheduler.schedule(sample_services()).value();
  EXPECT_EQ(scheduler.last_plan().gpus_in_use(),
            static_cast<std::size_t>(result.deployment.gpu_count));
  EXPECT_EQ(scheduler.last_plan().all_segments().size(), result.deployment.units.size());
  EXPECT_EQ(scheduler.last_configured().size(), sample_services().size());
}

}  // namespace
}  // namespace parva::core

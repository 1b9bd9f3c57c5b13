#include "scenarios/experiment.hpp"

#include <gtest/gtest.h>

namespace parva::scenarios {
namespace {

const ExperimentContext& context() {
  static const ExperimentContext ctx = ExperimentContext::create();
  return ctx;
}

TEST(ExperimentTest, FrameworkNames) {
  EXPECT_EQ(framework_name(Framework::kGpulet), "gpulet");
  EXPECT_EQ(framework_name(Framework::kIgniter), "iGniter");
  EXPECT_EQ(framework_name(Framework::kMigServing), "MIG-serving");
  EXPECT_EQ(framework_name(Framework::kParvaGpu), "ParvaGPU");
  EXPECT_EQ(framework_name(Framework::kParvaGpuSingle), "ParvaGPU-single");
  EXPECT_EQ(framework_name(Framework::kParvaGpuUnoptimized), "ParvaGPU-unoptimized");
}

TEST(ExperimentTest, FrameworkLists) {
  EXPECT_EQ(headline_frameworks().size(), 4u);
  EXPECT_EQ(all_frameworks().size(), 6u);
}

TEST(ExperimentTest, ContextProfilesAllModels) {
  EXPECT_EQ(context().profiles().size(), 11u);
}

TEST(ExperimentTest, MakeSchedulerProducesDistinctInstances) {
  auto a = context().make_scheduler(Framework::kParvaGpu);
  auto b = context().make_scheduler(Framework::kParvaGpu);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), "ParvaGPU");
}

TEST(ExperimentTest, EveryFrameworkRefusesARepeatedServiceId) {
  // Service 0 appears twice. Every later stage keys on the id, so every
  // framework must refuse the list rather than merge the two services.
  const std::vector<core::ServiceSpec> services = {{0, "resnet-50", 205, 800, {}},
                                                   {0, "bert-large", 6434, 80, {}},
                                                   {2, "vgg-19", 397, 300, {}}};
  for (const Framework framework : all_frameworks()) {
    const auto result = context().make_scheduler(framework)->schedule(services);
    ASSERT_FALSE(result.ok()) << framework_name(framework);
    EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument) << framework_name(framework);
    EXPECT_NE(result.error().to_string().find("service 0 at position 1 repeats"),
              std::string::npos)
        << result.error().to_string();
  }
}

TEST(ExperimentTest, RunWithoutSimulation) {
  const auto result = run_experiment(context(), Framework::kParvaGpu, scenario("S1"));
  ASSERT_TRUE(result.feasible);
  EXPECT_FALSE(result.ran_simulation);
  EXPECT_GT(result.gpu_count, 0);
  EXPECT_GE(result.internal_slack, 0.0);
  EXPECT_LE(result.internal_slack, 1.0);
  EXPECT_EQ(result.framework, "ParvaGPU");
  EXPECT_EQ(result.scenario, "S1");
}

TEST(ExperimentTest, RunWithSimulation) {
  ExperimentOptions options;
  options.run_simulation = true;
  options.sim.duration_ms = 2'000.0;
  options.sim.warmup_ms = 200.0;
  const auto result = run_experiment(context(), Framework::kParvaGpu, scenario("S1"), options);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.ran_simulation);
  EXPECT_DOUBLE_EQ(result.slo_compliance, 1.0);
  EXPECT_GE(result.measured_internal_slack, 0.0);
}

TEST(ExperimentTest, InfeasibleFrameworkReported) {
  const auto result = run_experiment(context(), Framework::kIgniter, scenario("S5"));
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.failure.find("capacity_exceeded"), std::string::npos);
}

TEST(ExperimentTest, ParvaGpuBeatsEveryBaselineOnGpuCount) {
  for (const auto& sc : all_scenarios()) {
    const auto parva = run_experiment(context(), Framework::kParvaGpu, sc);
    ASSERT_TRUE(parva.feasible) << sc.name;
    for (Framework framework :
         {Framework::kGpulet, Framework::kIgniter, Framework::kMigServing}) {
      const auto other = run_experiment(context(), framework, sc);
      if (!other.feasible) continue;
      EXPECT_LE(parva.gpu_count, other.gpu_count)
          << sc.name << " vs " << framework_name(framework);
    }
  }
}

TEST(ExperimentTest, TailExclusiveFragmentationNeverExceedsStrict) {
  for (Framework framework : all_frameworks()) {
    const auto result = run_experiment(context(), framework, scenario("S3"));
    if (!result.feasible) continue;
    EXPECT_LE(result.fragmentation_excl_tail,
              result.external_fragmentation + 0.15)
        << framework_name(framework);
  }
}

TEST(ExperimentTest, SeedSweepMatchesSerialRuns) {
  const std::uint64_t seeds[] = {11ULL, 23ULL, 47ULL};
  ExperimentOptions options;
  options.run_simulation = true;
  options.sim.duration_ms = 2'000.0;
  options.sim.warmup_ms = 200.0;
  const auto sweep =
      run_experiment_seeds(context(), Framework::kParvaGpu, scenario("S1"), options, seeds);
  ASSERT_EQ(sweep.size(), 3u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    options.sim.seed = seeds[i];
    const auto serial = run_experiment(context(), Framework::kParvaGpu, scenario("S1"), options);
    ASSERT_TRUE(sweep[i].feasible);
    EXPECT_EQ(sweep[i].gpu_count, serial.gpu_count);
    EXPECT_EQ(sweep[i].slo_compliance, serial.slo_compliance);
    EXPECT_EQ(sweep[i].worst_service_compliance, serial.worst_service_compliance);
    EXPECT_EQ(sweep[i].measured_internal_slack, serial.measured_internal_slack);
    EXPECT_EQ(sweep[i].worst_p99_over_slo, serial.worst_p99_over_slo);
  }
}

TEST(ExperimentTest, SeedSweepCarriesSchedulingFailure) {
  const std::uint64_t seeds[] = {11ULL};
  ExperimentOptions options;
  options.run_simulation = true;
  const auto sweep =
      run_experiment_seeds(context(), Framework::kIgniter, scenario("S5"), options, seeds);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_FALSE(sweep[0].feasible);
  EXPECT_FALSE(sweep[0].failure.empty());
}

}  // namespace
}  // namespace parva::scenarios

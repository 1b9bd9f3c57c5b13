// Integration tests across the whole stack: scheduler -> deployer ->
// simulated cluster -> discrete-event serving -> metrics, for every
// scenario. These encode the paper's headline claims as executable
// invariants.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "core/deployer.hpp"
#include "core/metrics.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "scenarios/experiment.hpp"
#include "serving/cluster_sim.hpp"
#include "tests/core/test_support.hpp"

namespace parva {
namespace {

using core::testing::builtin_profiles;
using scenarios::all_scenarios;
using scenarios::ExperimentContext;
using scenarios::Framework;

const ExperimentContext& context() {
  static const ExperimentContext ctx = ExperimentContext::create();
  return ctx;
}

// === Paper claim: ParvaGPU never violates an SLO (Fig. 8). ===
class SloComplianceProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(SloComplianceProperty, ParvaGpuFullyCompliant) {
  const auto& sc = scenarios::scenario(GetParam());
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  const auto schedule = scheduler.schedule(sc.services).value();
  serving::ClusterSimulation sim(schedule.deployment, sc.services, context().perf());
  serving::SimulationOptions options;
  options.duration_ms = 6'000.0;
  options.warmup_ms = 500.0;
  const auto result = sim.run(options);
  EXPECT_DOUBLE_EQ(result.worst_compliance(), 1.0) << GetParam();
  // And the measured slack stays low (paper band 3-5%; we allow < 12%).
  EXPECT_LT(result.internal_slack, 0.12) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, SloComplianceProperty,
                         ::testing::Values("S1", "S2", "S3", "S4", "S5", "S6"));

// === Paper claim: ParvaGPU's deployment map materialises on real
//     control-plane semantics without a single rejected call. ===
class DeployabilityProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(DeployabilityProperty, PlanDeploysOnSimulatedCluster) {
  const auto& sc = scenarios::scenario(GetParam());
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  const auto schedule = scheduler.schedule(sc.services).value();

  gpu::GpuCluster cluster(8);  // one p4de.24xlarge; grows elastically
  gpu::NvmlSim nvml(cluster);
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  core::Deployer deployer(nvml, perf);
  const auto state = deployer.deploy(schedule.deployment);
  ASSERT_TRUE(state.ok()) << state.error().to_string();
  EXPECT_EQ(cluster.gpus_in_use(), static_cast<std::size_t>(schedule.deployment.gpu_count));
  // No control-plane operation failed.
  for (const auto& op : nvml.operation_log()) {
    EXPECT_EQ(op.find("FAILED"), std::string::npos) << op;
  }
  ASSERT_TRUE(deployer.teardown(state.value()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, DeployabilityProperty,
                         ::testing::Values("S1", "S2", "S3", "S4", "S5", "S6"));

// === Paper claim: variants relate as published. ===
TEST(EndToEndTest, VariantOrderingAcrossScenarios) {
  for (const auto& sc : all_scenarios()) {
    const auto parva = run_experiment(context(), Framework::kParvaGpu, sc);
    const auto single = run_experiment(context(), Framework::kParvaGpuSingle, sc);
    const auto unopt = run_experiment(context(), Framework::kParvaGpuUnoptimized, sc);
    ASSERT_TRUE(parva.feasible && single.feasible && unopt.feasible) << sc.name;
    EXPECT_LE(parva.gpu_count, single.gpu_count) << sc.name;
    EXPECT_LE(parva.gpu_count, unopt.gpu_count) << sc.name;
    EXPECT_LE(parva.internal_slack, single.internal_slack + 1e-9) << sc.name;
  }
}

// === Paper claim: the SLO-change path reconfigures only the touched
//     service and the result still serves all load compliantly. ===
TEST(EndToEndTest, ReconfigurationKeepsClusterServing) {
  const auto& sc = scenarios::scenario("S2");
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  (void)scheduler.schedule(sc.services).value();
  auto plan = scheduler.last_plan();
  auto configured = scheduler.last_configured();

  // Tighten inception's SLO (service id 4 in S2) to the S3 level.
  core::ServiceSpec updated = sc.services[4];
  ASSERT_EQ(updated.model, "inceptionv3");
  updated.slo_latency_ms = 282;
  core::Reconfigurer reconfigurer{core::SegmentConfigurator(), core::SegmentAllocator()};
  ASSERT_TRUE(
      reconfigurer.update_service(plan, configured, updated, scheduler.surfaces()).ok());

  std::vector<core::ServiceSpec> services = sc.services;
  services[4] = updated;
  const auto deployment = core::ParvaGpuScheduler::to_deployment(plan, "ParvaGPU", services);
  serving::ClusterSimulation sim(deployment, services, context().perf());
  serving::SimulationOptions options;
  options.duration_ms = 4'000.0;
  const auto result = sim.run(options);
  EXPECT_DOUBLE_EQ(result.worst_compliance(), 1.0);
}

/// Fastest of 7 `schedule()` calls, in CPU milliseconds of the calling
/// thread. Thread CPU time leaves out the time a loaded host gives to other
/// processes, which wall clock would count, and the fastest run is the one
/// least disturbed by cache and frequency noise.
double fastest_schedule_cpu_ms(core::ParvaGpuScheduler& scheduler,
                               const scenarios::Scenario& sc) {
  double fastest = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 7; ++i) {
    timespec start{};
    timespec stop{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
    const auto result = scheduler.schedule(sc.services);
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &stop);
    EXPECT_TRUE(result.ok()) << sc.name;
    const double ms = static_cast<double>(stop.tv_sec - start.tv_sec) * 1e3 +
                      static_cast<double>(stop.tv_nsec - start.tv_nsec) * 1e-6;
    fastest = std::min(fastest, ms);
  }
  return fastest;
}

// === Paper claim: two-stage scheduling stays fast as services scale
//     (Fig. 11): 10x the services (110 -> 1,100) must cost well under
//     the 100x a quadratic allocator pays. ===
TEST(EndToEndTest, SchedulingScalesNearLinearly) {
  const auto fold10 = scenarios::scale_scenario(scenarios::scenario("S5"), 10);
  const auto fold100 = scenarios::scale_scenario(scenarios::scenario("S5"), 100);
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  const double d10 = fastest_schedule_cpu_ms(scheduler, fold10);
  const double d100 = fastest_schedule_cpu_ms(scheduler, fold100);
  EXPECT_LT(d100, 30.0 * std::max(d10, 0.005))
      << "ParvaGPU's delay must grow near-linearly with service count (S5 x10 " << d10
      << " ms, x100 " << d100 << " ms CPU)";
}

// S7 leaves most GPUs light, so Allocation Optimization visits nearly every
// GPU and re-places small segments on many of them: planning stays
// near-linear only if each placement resumes a first-fit cursor instead of
// scanning from GPU 0 (a first-fit that restarts from GPU 0 read 71-75x on
// a 4-vCPU VM, against 8-13x with the cursors).
TEST(EndToEndTest, LlmSchedulingScalesNearLinearly) {
  const auto fold10 = scenarios::scale_scenario(scenarios::llm_scenario(), 10);
  const auto fold100 = scenarios::scale_scenario(scenarios::llm_scenario(), 100);
  core::ParvaGpuScheduler scheduler(core::testing::llm_profiles());
  const double d10 = fastest_schedule_cpu_ms(scheduler, fold10);
  const double d100 = fastest_schedule_cpu_ms(scheduler, fold100);
  EXPECT_LT(d100, 20.0 * std::max(d10, 0.005))
      << "S7 x10 fastest " << d10 << " ms, x100 fastest " << d100 << " ms CPU";
}

// === Deterministic serving capacity: the DES measured rate matches the
//     offered rate for every service of every scenario (no starvation). ===
TEST(EndToEndTest, NoServiceStarvation) {
  const auto& sc = scenarios::scenario("S6");
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  const auto schedule = scheduler.schedule(sc.services).value();
  serving::ClusterSimulation sim(schedule.deployment, sc.services, context().perf());
  serving::SimulationOptions options;
  options.duration_ms = 4'000.0;
  const auto result = sim.run(options);
  for (const auto& outcome : result.services) {
    EXPECT_GT(outcome.measured_rate, 0.85 * outcome.offered_rate)
        << "service " << outcome.service_id;
  }
}

}  // namespace
}  // namespace parva

// Acceptance tests for the failure harness: a deterministic kill-1-of-N
// scenario must show the full degrade -> self-heal -> recover arc, and the
// whole pipeline (schedule, deploy, fault schedule, repair, simulation)
// must replay byte-for-byte from the same seeds.
#include <gtest/gtest.h>

#include <vector>

#include "core/parvagpu.hpp"
#include "core/repair.hpp"
#include "gpu/dcgm_sim.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"

namespace parva::serving {
namespace {

/// Everything one end-to-end run produces, flattened for equality checks.
struct RunOutcome {
  int victim = -1;
  double recovery_ms = 0.0;
  double recovered_at_ms = 0.0;
  int transient_retries = 0;
  SimulationResult result;

  /// The counters that must be bit-identical across replays.
  std::vector<std::uint64_t> fingerprint() const {
    std::vector<std::uint64_t> print = {static_cast<std::uint64_t>(victim),
                                        static_cast<std::uint64_t>(transient_retries),
                                        result.requests_shed,
                                        result.pre_failure.requests,
                                        result.pre_failure.violated_requests,
                                        result.degraded.requests,
                                        result.degraded.violated_requests,
                                        result.degraded.shed_requests,
                                        result.post_recovery.requests,
                                        result.post_recovery.violated_requests};
    for (const ServiceOutcome& service : result.services) {
      print.push_back(service.requests);
      print.push_back(service.batches);
      print.push_back(service.violated_batches);
      print.push_back(service.shed_requests);
    }
    for (const TimelineBucket& bucket : result.timeline) {
      print.push_back(static_cast<std::uint64_t>(bucket.batches));
      print.push_back(static_cast<std::uint64_t>(bucket.violated_batches));
      print.push_back(bucket.shed_requests);
    }
    return print;
  }
};

/// The bench flow as a function of seeds: schedule S2, deploy on a faulty
/// control plane, kill the busiest GPU at t=10 s, repair, simulate through
/// the failure with the replacements activating at recovery.
RunOutcome run_kill_one(std::uint64_t fault_seed, std::uint64_t sim_seed) {
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  const auto profiles = profiler.profile_all(perfmodel::ModelCatalog::builtin().names());
  const auto& scenario = scenarios::scenario("S2");

  core::ParvaGpuScheduler scheduler(profiles);
  core::Deployment deployment = scheduler.schedule(scenario.services).value().deployment;
  const core::Deployment healthy = deployment;

  constexpr double kFailAtMs = 10'000.0;
  std::vector<int> units_per_gpu(static_cast<std::size_t>(deployment.gpu_count), 0);
  for (const auto& unit : deployment.units) {
    ++units_per_gpu[static_cast<std::size_t>(unit.gpu_index)];
  }
  int victim = 0;
  for (std::size_t g = 0; g < units_per_gpu.size(); ++g) {
    if (units_per_gpu[g] > units_per_gpu[static_cast<std::size_t>(victim)]) {
      victim = static_cast<int>(g);
    }
  }

  gpu::FaultPlan fault_plan;
  fault_plan.seed = fault_seed;
  fault_plan.gpu_failures = {{kFailAtMs, victim, 79}};
  fault_plan.transient_create_failure_prob = 0.15;

  gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim nvml(cluster);
  gpu::DcgmSim dcgm;
  gpu::FaultInjector injector(fault_plan);
  nvml.set_fault_injector(&injector);
  nvml.attach_health_monitor(&dcgm);
  core::Deployer deployer(nvml, perf);
  core::LiveUpdater updater(deployer);
  auto state = deployer.deploy(deployment).value();

  nvml.set_time_ms(kFailAtMs);
  EXPECT_EQ(nvml.fail_device(static_cast<unsigned>(victim)), gpu::NvmlReturn::kSuccess);

  core::RepairCoordinator repairer(deployer, updater);
  const auto repair = repairer.handle_gpu_loss(deployment, state, victim).value();

  RunOutcome outcome;
  outcome.victim = victim;
  outcome.recovery_ms = repair.recovery_ms;
  outcome.recovered_at_ms = kFailAtMs + repair.recovery_ms;
  outcome.transient_retries = deployer.total_stats().transient_retries;

  core::Deployment sim_deployment = healthy;
  SimulationOptions options;
  options.duration_ms = 28'000.0;
  options.warmup_ms = 2'000.0;
  options.seed = sim_seed;
  options.fault_plan = &fault_plan;
  options.recovered_at_ms = outcome.recovered_at_ms;
  options.timeline_bucket_ms = 2'000.0;
  for (const auto& unit : repair.replacements) {
    options.activations.push_back({sim_deployment.units.size(), outcome.recovered_at_ms});
    sim_deployment.units.push_back(unit);
  }
  sim_deployment.gpu_count = repair.deployment.gpu_count;

  ClusterSimulation sim(sim_deployment, scenario.services, perf);
  outcome.result = sim.run(options);
  return outcome;
}

TEST(FaultSimTest, KillOneGpuDegradesThenRecovers) {
  const RunOutcome outcome = run_kill_one(99, 7);
  const SimulationResult& result = outcome.result;

  // The failure and the recovery both land inside the measured window.
  EXPECT_DOUBLE_EQ(result.failure_at_ms, 10'000.0);
  EXPECT_GT(outcome.recovery_ms, 0.0);
  EXPECT_GT(result.recovered_at_ms, result.failure_at_ms);
  EXPECT_LT(result.recovered_at_ms, 28'000.0);

  // Shed traffic is the fingerprint of the outage: zero before, massive
  // during, zero after.
  EXPECT_GT(result.requests_shed, 0u);
  EXPECT_EQ(result.pre_failure.shed_requests, 0u);
  EXPECT_GT(result.degraded.shed_requests, 0u);

  // Every phase actually observed traffic.
  EXPECT_GT(result.pre_failure.requests, 0u);
  EXPECT_GT(result.post_recovery.requests, 0u);

  // Compliance: healthy before, degraded during, healed after (>= 0.99x of
  // the pre-failure level — the acceptance bar).
  const double pre = result.pre_failure.compliance();
  EXPECT_GT(pre, 0.95);
  EXPECT_LT(result.degraded.compliance(), pre);
  EXPECT_GE(result.post_recovery.compliance(), 0.99 * pre);

  // The bucketed series tells the same story: some bucket sheds, and the
  // final bucket is clean again.
  ASSERT_FALSE(result.timeline.empty());
  std::uint64_t timeline_shed = 0;
  for (const TimelineBucket& bucket : result.timeline) timeline_shed += bucket.shed_requests;
  EXPECT_EQ(timeline_shed, result.requests_shed);
  EXPECT_EQ(result.timeline.back().shed_requests, 0u);
  EXPECT_GT(result.timeline.back().compliance(), 0.95);

  // Transient create faults were live (p=0.15) and show in the metrics.
  EXPECT_GT(outcome.transient_retries, 0);
}

TEST(FaultSimTest, SameSeedsReplayByteForByte) {
  const RunOutcome first = run_kill_one(99, 7);
  const RunOutcome second = run_kill_one(99, 7);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
  EXPECT_DOUBLE_EQ(first.recovery_ms, second.recovery_ms);
  EXPECT_DOUBLE_EQ(first.result.recovered_at_ms, second.result.recovered_at_ms);
  ASSERT_EQ(first.result.services.size(), second.result.services.size());
  for (std::size_t i = 0; i < first.result.services.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.result.services[i].measured_rate,
                     second.result.services[i].measured_rate);
    EXPECT_DOUBLE_EQ(first.result.services[i].compliance(),
                     second.result.services[i].compliance());
  }

  // A different sim seed perturbs the arrivals: the run must not be
  // accidentally seed-independent.
  const RunOutcome other = run_kill_one(99, 8);
  EXPECT_NE(first.fingerprint(), other.fingerprint());
}

TEST(FaultSimTest, FaultSeedOnlyMovesRetryMetricsNotThePreFailureStory) {
  // Changing the FaultPlan seed re-rolls the transient-failure stream, so
  // retry counts and backoff (and with them the exact recovery instant) may
  // move — but the failure schedule, the victim, and everything the data
  // plane serves before the XID are untouched, and the arc still heals.
  const RunOutcome a = run_kill_one(99, 7);
  const RunOutcome b = run_kill_one(1234, 7);
  EXPECT_EQ(a.victim, b.victim);
  EXPECT_DOUBLE_EQ(a.result.failure_at_ms, b.result.failure_at_ms);
  EXPECT_EQ(a.result.pre_failure.requests, b.result.pre_failure.requests);
  EXPECT_EQ(a.result.pre_failure.violated_requests, b.result.pre_failure.violated_requests);
  EXPECT_GE(b.result.post_recovery.compliance(), 0.99 * b.result.pre_failure.compliance());
  EXPECT_GT(b.result.degraded.shed_requests, 0u);
}

}  // namespace
}  // namespace parva::serving

#include "core/repair.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>

#include "core/parvagpu.hpp"
#include "gpu/dcgm_sim.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;
using testing::service;

class RepairTest : public ::testing::Test {
 protected:
  /// Schedules a multi-GPU workload and materialises it on the cluster.
  Deployment schedule() {
    const std::vector<ServiceSpec> services = {service(0, "resnet-50", 205, 2000),
                                               service(1, "inceptionv3", 419, 1500),
                                               service(2, "vgg-19", 397, 900)};
    ParvaGpuScheduler scheduler(builtin_profiles());
    return scheduler.schedule(services).value().deployment;
  }

  /// Sorted (gpcs, batch, procs) triplets of the units, for capacity
  /// preservation checks.
  static std::vector<std::array<int, 3>> triplets(const std::vector<DeployedUnit>& units) {
    std::vector<std::array<int, 3>> result;
    for (const auto& unit : units) {
      result.push_back({unit.placement->gpcs, unit.batch, unit.procs});
    }
    std::sort(result.begin(), result.end());
    return result;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
};

TEST_F(RepairTest, GpuLossReplacesDisplacedUnitsOffTheLostDevice) {
  Deployment deployment = schedule();
  ASSERT_GT(deployment.gpu_count, 1);
  gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim nvml(cluster);
  Deployer deployer(nvml, perf_);
  DeployedState state = deployer.deploy(deployment).value();
  const auto lost_triplets_before = triplets(deployment.units);

  // Kill the GPU with the most units; the control plane reports exactly
  // its units lost.
  std::map<int, int> per_gpu;
  for (const auto& unit : deployment.units) ++per_gpu[unit.gpu_index];
  const int victim =
      std::max_element(per_gpu.begin(), per_gpu.end(),
                       [](const auto& a, const auto& b) { return a.second < b.second; })
          ->first;
  ASSERT_EQ(nvml.fail_device(static_cast<unsigned>(victim)), gpu::NvmlReturn::kSuccess);

  LiveUpdater updater(deployer);
  RepairCoordinator repairer(deployer, updater);
  const auto on_lost_device = [&nvml](const DeployedUnit& unit) {
    return nvml.device_lost(static_cast<unsigned>(unit.gpu_index));
  };
  EXPECT_EQ(std::count_if(deployment.units.begin(), deployment.units.end(), on_lost_device),
            per_gpu[victim]);

  const auto repaired = repairer.handle_gpu_loss(deployment, state, victim);
  ASSERT_TRUE(repaired.ok()) << repaired.error().to_string();
  const RepairReport& report = repaired.value();

  EXPECT_EQ(report.lost_gpu, victim);
  EXPECT_EQ(report.lost_units, per_gpu[victim]);
  EXPECT_EQ(report.replaced_units, report.lost_units);
  EXPECT_FALSE(report.affected_services.empty());
  EXPECT_GT(report.displaced_rate, 0.0);
  EXPECT_GT(report.recovery_ms, 0.0);
  EXPECT_GT(report.update.added_units, 0);

  // The repaired deployment: same triplet multiset (capacity preserved
  // exactly), nothing on the dead device, and state tracks it 1:1.
  EXPECT_EQ(triplets(deployment.units), lost_triplets_before);
  for (const auto& unit : deployment.units) {
    EXPECT_NE(unit.gpu_index, victim);
  }
  for (const auto& unit : report.replacements) {
    EXPECT_NE(unit.gpu_index, victim);
  }
  ASSERT_EQ(state.unit_instances.size(), deployment.units.size());

  // Geometry legality: per-GPU slot masks never overlap.
  std::map<int, std::uint8_t> occupied;
  for (const auto& unit : deployment.units) {
    const std::uint8_t mask = unit.placement->slot_mask();
    EXPECT_EQ(occupied[unit.gpu_index] & mask, 0) << "gpu " << unit.gpu_index;
    occupied[unit.gpu_index] |= mask;
  }

  // The control plane agrees: every live instance is on a healthy device.
  for (const auto& id : state.unit_instances) {
    EXPECT_FALSE(nvml.device_lost(static_cast<unsigned>(id.gpu)));
  }
}

TEST_F(RepairTest, LossOfEmptyGpuNeedsNoRecovery) {
  Deployment deployment = schedule();
  const int spare = deployment.gpu_count;  // one GPU beyond the fleet
  gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count + 1));
  gpu::NvmlSim nvml(cluster);
  Deployer deployer(nvml, perf_);
  DeployedState state = deployer.deploy(deployment).value();
  ASSERT_EQ(nvml.fail_device(static_cast<unsigned>(spare)), gpu::NvmlReturn::kSuccess);

  LiveUpdater updater(deployer);
  RepairCoordinator repairer(deployer, updater);
  EXPECT_TRUE(std::none_of(
      deployment.units.begin(), deployment.units.end(), [&nvml](const DeployedUnit& unit) {
        return nvml.device_lost(static_cast<unsigned>(unit.gpu_index));
      }));
  const auto repaired = repairer.handle_gpu_loss(deployment, state, spare);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value().lost_units, 0);
  EXPECT_EQ(repaired.value().replaced_units, 0);
  EXPECT_DOUBLE_EQ(repaired.value().recovery_ms, 0.0);
}

TEST_F(RepairTest, TransientCreateFaultsAreInvisibleInTheFinalDeployment) {
  // Deploy the same map twice: once on a healthy control plane, once with
  // p=0.3 transient create failures. The deployments must be IDENTICAL —
  // the faults may only show in the retry metrics.
  const Deployment deployment = schedule();

  gpu::GpuCluster healthy_cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim healthy_nvml(healthy_cluster);
  Deployer healthy_deployer(healthy_nvml, perf_);
  const DeployedState healthy_state = healthy_deployer.deploy(deployment).value();
  EXPECT_EQ(healthy_deployer.total_stats().transient_retries, 0);

  gpu::FaultPlan plan;
  plan.seed = 4242;
  plan.transient_create_failure_prob = 0.3;
  gpu::FaultInjector injector(plan);
  gpu::GpuCluster faulty_cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim faulty_nvml(faulty_cluster);
  faulty_nvml.set_fault_injector(&injector);
  Deployer faulty_deployer(faulty_nvml, perf_);
  const DeployedState faulty_state = faulty_deployer.deploy(deployment).value();

  // Retries happened...
  EXPECT_GT(faulty_deployer.total_stats().transient_retries, 0);
  EXPECT_GT(faulty_deployer.total_stats().backoff_ms, 0.0);
  // ...but converged on the planned slots: no fallback placements, and the
  // physical clusters are slot-for-slot identical.
  EXPECT_EQ(faulty_deployer.total_stats().fallback_placements, 0);
  ASSERT_EQ(faulty_state.unit_instances.size(), healthy_state.unit_instances.size());
  for (std::size_t g = 0; g < healthy_cluster.size(); ++g) {
    EXPECT_EQ(faulty_cluster.gpu(g).occupied_mask(), healthy_cluster.gpu(g).occupied_mask())
        << "gpu " << g;
  }
  for (std::size_t i = 0; i < healthy_state.unit_instances.size(); ++i) {
    EXPECT_EQ(faulty_state.unit_instances[i].gpu, healthy_state.unit_instances[i].gpu);
    const auto* healthy_instance =
        healthy_cluster.find_instance(healthy_state.unit_instances[i]);
    const auto* faulty_instance = faulty_cluster.find_instance(faulty_state.unit_instances[i]);
    ASSERT_NE(healthy_instance, nullptr);
    ASSERT_NE(faulty_instance, nullptr);
    EXPECT_EQ(faulty_instance->placement, healthy_instance->placement);
  }
}

TEST_F(RepairTest, RepairSucceedsUnderTransientFaults) {
  // The repair path itself runs against a faulty control plane: the
  // replacement creates retry through NVML_ERROR_IN_USE and still land.
  Deployment deployment = schedule();
  gpu::FaultPlan plan;
  plan.seed = 77;
  plan.transient_create_failure_prob = 0.3;
  gpu::FaultInjector injector(plan);
  gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim nvml(cluster);
  nvml.set_fault_injector(&injector);
  Deployer deployer(nvml, perf_);
  DeployedState state = deployer.deploy(deployment).value();

  ASSERT_EQ(nvml.fail_device(0), gpu::NvmlReturn::kSuccess);
  LiveUpdater updater(deployer);
  RepairCoordinator repairer(deployer, updater);
  const auto repaired = repairer.handle_gpu_loss(deployment, state, 0);
  ASSERT_TRUE(repaired.ok()) << repaired.error().to_string();
  // The report's recovery time includes any backoff the retries spent.
  EXPECT_GE(repaired.value().recovery_ms,
            repaired.value().update.makespan_ms + kDetectionLatencyMs);
}

TEST_F(RepairTest, OneGpuRepairCostsLessThanDeployingTheFleet) {
  // A repair should cost the change, not the fleet. At S5 x100 (about
  // 3,700 units) the median of 5 repairs of one lost GPU, which held a
  // lone 7g unit, must undercut the median of 5 full deploys of the fleet.
  const auto fleet = scenarios::scale_scenario(scenarios::scenario("S5"), 100);
  ParvaGpuScheduler scheduler(builtin_profiles());
  const Deployment deployment = scheduler.schedule(fleet.services).value().deployment;
  const auto whole = std::find_if(deployment.units.begin(), deployment.units.end(),
                                  [](const DeployedUnit& unit) {
                                    return unit.placement->gpcs == gpu::kGpcSlots;
                                  });
  ASSERT_NE(whole, deployment.units.end());
  const int victim = whole->gpu_index;

  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };
  std::vector<double> deploy_ms;
  std::vector<double> repair_ms;
  for (int rep = 0; rep < 5; ++rep) {
    gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count));
    gpu::NvmlSim nvml(cluster);
    Deployer deployer(nvml, perf_);
    auto start = Clock::now();
    auto state = deployer.deploy(deployment);
    deploy_ms.push_back(ms_since(start));
    ASSERT_TRUE(state.ok()) << state.error().to_string();

    ASSERT_EQ(nvml.fail_device(static_cast<unsigned>(victim)), gpu::NvmlReturn::kSuccess);
    Deployment current = deployment;
    LiveUpdater updater(deployer);
    RepairCoordinator repairer(deployer, updater);
    start = Clock::now();
    const auto repaired = repairer.handle_gpu_loss(current, state.value(), victim);
    repair_ms.push_back(ms_since(start));
    ASSERT_TRUE(repaired.ok()) << repaired.error().to_string();
    ASSERT_EQ(repaired.value().replaced_units, 1);
  }
  std::sort(deploy_ms.begin(), deploy_ms.end());
  std::sort(repair_ms.begin(), repair_ms.end());
  RecordProperty("deploy_median_ms", std::to_string(deploy_ms[2]));
  RecordProperty("repair_median_ms", std::to_string(repair_ms[2]));
  EXPECT_LT(repair_ms[2], deploy_ms[2]) << "repair median " << repair_ms[2]
                                        << " ms vs deploy median " << deploy_ms[2] << " ms";
}

TEST_F(RepairTest, MismatchedStateRejected) {
  Deployment deployment = schedule();
  gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim nvml(cluster);
  Deployer deployer(nvml, perf_);
  LiveUpdater updater(deployer);
  RepairCoordinator repairer(deployer, updater);
  DeployedState bogus;  // wrong size
  EXPECT_FALSE(repairer.handle_gpu_loss(deployment, bogus, 0).ok());
}

}  // namespace
}  // namespace parva::core

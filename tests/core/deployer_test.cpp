#include "core/deployer.hpp"

#include <gtest/gtest.h>

#include "core/parvagpu.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;
using testing::mig_unit;
using testing::service;

class DeployerTest : public ::testing::Test {
 protected:
  DeployerTest() : nvml_(cluster_), deployer_(nvml_, perf_) {}

  Deployment schedule(const std::vector<ServiceSpec>& services) {
    ParvaGpuScheduler scheduler(builtin_profiles());
    return scheduler.schedule(services).value().deployment;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
  gpu::GpuCluster cluster_{2};
  gpu::NvmlSim nvml_{cluster_};
  Deployer deployer_;
};

TEST_F(DeployerTest, MaterialisesEveryUnit) {
  const Deployment deployment = schedule({service(0, "resnet-50", 205, 829),
                                          service(1, "vgg-19", 397, 354)});
  const auto state = deployer_.deploy(deployment);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state.value().unit_instances.size(), deployment.units.size());
  for (std::size_t i = 0; i < deployment.units.size(); ++i) {
    const gpu::MigInstance* instance = cluster_.find_instance(state.value().unit_instances[i]);
    ASSERT_NE(instance, nullptr);
    EXPECT_EQ(instance->gpcs(), static_cast<int>(deployment.units[i].gpc_grant));
    EXPECT_EQ(static_cast<int>(instance->processes.size()), deployment.units[i].procs);
    EXPECT_EQ(instance->placement.start_slot, deployment.units[i].placement->start_slot);
    if (deployment.units[i].procs > 1) {
      EXPECT_TRUE(instance->mps_enabled);
    }
  }
}

TEST_F(DeployerTest, GrowsElasticClusterOnDemand) {
  // Enough load for more than the 2 initial GPUs.
  const Deployment deployment = schedule({service(0, "vgg-16", 400, 12000)});
  ASSERT_GT(deployment.gpu_count, 2);
  const auto state = deployer_.deploy(deployment);
  ASSERT_TRUE(state.ok());
  EXPECT_GE(cluster_.size(), static_cast<std::size_t>(deployment.gpu_count));
  EXPECT_EQ(cluster_.gpus_in_use(), static_cast<std::size_t>(deployment.gpu_count));
}

TEST_F(DeployerTest, TeardownRestoresCluster) {
  const Deployment deployment = schedule({service(0, "resnet-50", 205, 829)});
  const auto state = deployer_.deploy(deployment).value();
  ASSERT_TRUE(deployer_.teardown(state).ok());
  EXPECT_EQ(cluster_.gpus_in_use(), 0u);
  EXPECT_EQ(cluster_.total_allocated_gpcs(), 0);
}

TEST_F(DeployerTest, RejectsMpsShareDeployments) {
  Deployment deployment;
  deployment.uses_mig = false;
  deployment.gpu_count = 1;
  const auto state = deployer_.deploy(deployment);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.error().code(), ErrorCode::kUnsupported);
}

TEST_F(DeployerTest, UnknownModelFails) {
  Deployment deployment;
  deployment.uses_mig = true;
  deployment.gpu_count = 1;
  DeployedUnit unit;
  unit.service_id = 0;
  unit.model = "not-a-model";
  unit.gpu_index = 0;
  unit.gpc_grant = 1.0;
  unit.placement = gpu::Placement{1, 0};
  unit.batch = 1;
  unit.procs = 1;
  deployment.units.push_back(unit);
  const auto state = deployer_.deploy(deployment);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.error().code(), ErrorCode::kNotFound);
}

TEST_F(DeployerTest, BlockedPlannedSlotFallsBackToTheNextFreePreferredSlot) {
  // 2g units prefer start slots 0, 2, 4. Slots 0 and 2 are taken, so a unit
  // planned at 2g@0 must land at 2g@4, count one fallback and emit one
  // kFallbackPlacement event naming the slot.
  telemetry::Telemetry telemetry;
  deployer_.set_telemetry(&telemetry);
  Deployment occupied;
  occupied.uses_mig = true;
  occupied.gpu_count = 1;
  occupied.units = {mig_unit(0, "resnet-50", 0, 2, 0), mig_unit(0, "resnet-50", 0, 2, 2)};
  ASSERT_TRUE(deployer_.deploy(occupied).ok());

  Deployment blocked;
  blocked.uses_mig = true;
  blocked.gpu_count = 1;
  blocked.units = {mig_unit(1, "vgg-19", 0, 2, 0)};
  const auto state = deployer_.deploy(blocked);
  ASSERT_TRUE(state.ok()) << state.error().to_string();
  const gpu::MigInstance* instance = cluster_.find_instance(state.value().unit_instances[0]);
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->placement, (gpu::Placement{2, 4}));
  EXPECT_EQ(deployer_.last_deploy_stats().fallback_placements, 1);
  EXPECT_EQ(deployer_.last_deploy_stats().transient_retries, 0);
  EXPECT_EQ(deployer_.total_stats().fallback_placements, 1);

  int fallback_events = 0;
  for (const telemetry::Event& event : telemetry.events().snapshot()) {
    if (event.kind != telemetry::EventKind::kFallbackPlacement) continue;
    ++fallback_events;
    EXPECT_EQ(event.gpu, 0);
    EXPECT_EQ(event.service_id, 1);
    EXPECT_DOUBLE_EQ(event.value, 4.0);
  }
  EXPECT_EQ(fallback_events, 1);
}

TEST_F(DeployerTest, PlannedSlotOnALostGpuFailsWithoutTryingOtherSlots) {
  ASSERT_EQ(nvml_.fail_device(0), gpu::NvmlReturn::kSuccess);
  Deployment deployment;
  deployment.uses_mig = true;
  deployment.gpu_count = 1;
  deployment.units = {mig_unit(0, "resnet-50", 0, 1, 0)};
  nvml_.clear_operation_log();
  const auto state = deployer_.deploy(deployment);
  ASSERT_FALSE(state.ok());
  EXPECT_NE(state.error().to_string().find(
                gpu::nvml_error_string(gpu::NvmlReturn::kErrorGpuIsLost)),
            std::string::npos)
      << state.error().to_string();
  int creates = 0;
  for (const std::string& op : nvml_.operation_log()) {
    if (op.find("create_gi_placed") != std::string::npos) ++creates;
  }
  EXPECT_EQ(creates, 1);  // the planned slot only: no retry, no fallback
  EXPECT_EQ(deployer_.last_deploy_stats().fallback_placements, 0);
  EXPECT_EQ(deployer_.last_deploy_stats().transient_retries, 0);
}

TEST(DeployerFailureTest, FailedDeployKeepsItsAccountingAndReleasesTheFailedUnit) {
  // Four 7g units under p=0.6 transient create faults; the last one names a
  // model the catalog lacks. The deploy fails, yet the retries it spent on
  // the first three units still show in both stat views, and the unknown
  // unit never gets an instance.
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  gpu::FaultPlan plan;
  plan.seed = 1;
  plan.transient_create_failure_prob = 0.6;
  gpu::FaultInjector injector(plan);
  gpu::GpuCluster cluster(4);
  gpu::NvmlSim nvml(cluster);
  nvml.set_fault_injector(&injector);
  Deployer deployer(nvml, perf);

  Deployment deployment;
  deployment.uses_mig = true;
  deployment.gpu_count = 4;
  for (int g = 0; g < 3; ++g) deployment.units.push_back(mig_unit(g, "resnet-50", g, 7, 0));
  deployment.units.push_back(mig_unit(3, "not-a-model", 3, 7, 0));
  const auto state = deployer.deploy(deployment);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.error().code(), ErrorCode::kNotFound);
  ASSERT_GT(injector.transient_failures_injected(), 0);
  EXPECT_EQ(deployer.last_deploy_stats().transient_retries,
            injector.transient_failures_injected());
  EXPECT_EQ(deployer.total_stats().transient_retries, injector.transient_failures_injected());
  EXPECT_GT(deployer.total_stats().backoff_ms, 0.0);
  EXPECT_EQ(cluster.total_allocated_gpcs(), 21);
  EXPECT_EQ(cluster.gpu(3).occupied_mask(), 0);

  // A unit whose process cannot fit its instance's memory fails at launch
  // and gives the instance back; the stats of that call are recorded too.
  Deployment oversized;
  oversized.uses_mig = true;
  oversized.gpu_count = 4;
  oversized.units.push_back(mig_unit(4, "resnet-50", 3, 7, 0));
  oversized.units.back().batch = 1'000'000;
  const int faults_before = injector.transient_failures_injected();
  const auto launched = deployer.deploy(oversized);
  ASSERT_FALSE(launched.ok());
  EXPECT_EQ(launched.error().code(), ErrorCode::kInternal);
  EXPECT_NE(launched.error().to_string().find("launch_process"), std::string::npos);
  EXPECT_EQ(cluster.gpu(3).occupied_mask(), 0);
  EXPECT_EQ(cluster.total_allocated_gpcs(), 21);
  EXPECT_EQ(deployer.last_deploy_stats().transient_retries,
            injector.transient_failures_injected() - faults_before);
  EXPECT_EQ(deployer.total_stats().transient_retries, injector.transient_failures_injected());
}

TEST_F(DeployerTest, OperationLogShowsControlPlaneTraffic) {
  const Deployment deployment = schedule({service(0, "resnet-50", 205, 829)});
  nvml_.clear_operation_log();
  ASSERT_TRUE(deployer_.deploy(deployment).ok());
  bool saw_create = false;
  for (const std::string& op : nvml_.operation_log()) {
    if (op.find("create_gi_placed") != std::string::npos) saw_create = true;
  }
  EXPECT_TRUE(saw_create);
}

}  // namespace
}  // namespace parva::core

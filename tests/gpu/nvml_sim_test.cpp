#include "gpu/nvml_sim.hpp"

#include <gtest/gtest.h>

namespace parva::gpu {
namespace {

class NvmlSimTest : public ::testing::Test {
 protected:
  GpuCluster cluster_{2};
  NvmlSim nvml_{cluster_};
};

TEST_F(NvmlSimTest, CreateDestroyRoundTrip) {
  GlobalInstanceId id;
  ASSERT_EQ(nvml_.create_gpu_instance(0, 4, &id), NvmlReturn::kSuccess);
  EXPECT_EQ(id.gpu, 0);
  ASSERT_EQ(nvml_.destroy_gpu_instance(id), NvmlReturn::kSuccess);
  EXPECT_EQ(nvml_.destroy_gpu_instance(id), NvmlReturn::kErrorNotFound);
}

TEST_F(NvmlSimTest, ExplicitPlacement) {
  GlobalInstanceId id;
  ASSERT_EQ(nvml_.create_gpu_instance_with_placement(1, 3, 4, &id), NvmlReturn::kSuccess);
  const MigInstance* instance = cluster_.find_instance(id);
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->placement.start_slot, 4);
  // Overlapping placement fails.
  EXPECT_EQ(nvml_.create_gpu_instance_with_placement(1, 3, 4, nullptr),
            NvmlReturn::kErrorInsufficientResources);
}

TEST_F(NvmlSimTest, MpsAndProcessLifecycle) {
  GlobalInstanceId id;
  ASSERT_EQ(nvml_.create_gpu_instance(0, 2, &id), NvmlReturn::kSuccess);
  ASSERT_EQ(nvml_.start_mps_daemon(id), NvmlReturn::kSuccess);
  const MpsProcess process{"resnet-50", 16, 2.0};
  ASSERT_EQ(nvml_.launch_process(id, process), NvmlReturn::kSuccess);
  ASSERT_EQ(nvml_.launch_process(id, process), NvmlReturn::kSuccess);
  EXPECT_EQ(cluster_.find_instance(id)->processes.size(), 2u);
  ASSERT_EQ(nvml_.kill_processes(id), NvmlReturn::kSuccess);
  EXPECT_TRUE(cluster_.find_instance(id)->processes.empty());
}

TEST_F(NvmlSimTest, OutOfMemoryMapsToInsufficientMemory) {
  GlobalInstanceId id;
  ASSERT_EQ(nvml_.create_gpu_instance(0, 1, &id), NvmlReturn::kSuccess);  // 10 GiB
  EXPECT_EQ(nvml_.launch_process(id, {"m", 1, 11.0}), NvmlReturn::kErrorInsufficientMemory);
}

TEST_F(NvmlSimTest, OperationLogRecordsControlPlaneCalls) {
  GlobalInstanceId id;
  (void)nvml_.create_gpu_instance(0, 2, &id);
  (void)nvml_.start_mps_daemon(id);
  (void)nvml_.launch_process(id, {"m", 4, 1.0});
  ASSERT_GE(nvml_.operation_count(), 3u);
  EXPECT_NE(nvml_.operation_log()[0].find("create_gi"), std::string::npos);
  nvml_.clear_operation_log();
  EXPECT_EQ(nvml_.operation_count(), 0u);
}

TEST_F(NvmlSimTest, UnknownDevice) {
  GlobalInstanceId id;
  EXPECT_EQ(nvml_.create_gpu_instance_with_placement(9, 1, 0, &id),
            NvmlReturn::kErrorNotFound);
  EXPECT_EQ(nvml_.start_mps_daemon({9, 0}), NvmlReturn::kErrorNotFound);
}

}  // namespace
}  // namespace parva::gpu

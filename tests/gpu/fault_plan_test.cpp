#include "gpu/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "gpu/dcgm_sim.hpp"
#include "gpu/nvml_sim.hpp"

namespace parva::gpu {
namespace {

TEST(FaultPlanTest, SortsFailuresByTimeThenGpu) {
  FaultPlan plan;
  plan.gpu_failures = {{9'000.0, 2, 79}, {3'000.0, 0, 48}, {3'000.0, 5, 79}};
  const auto sorted = plan.sorted_gpu_failures();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].gpu_index, 0);  // time, then gpu index
  EXPECT_EQ(sorted[1].gpu_index, 5);
  EXPECT_EQ(sorted[2].gpu_index, 2);
  EXPECT_DOUBLE_EQ(sorted[0].at_ms, 3'000.0);
}

TEST(FaultPlanTest, InvalidPlansRejected) {
  FaultPlan bad;
  bad.transient_create_failure_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::logic_error);
}

TEST(FaultInjectorTest, SamePlanInjectsIdenticalSequence) {
  FaultPlan plan;
  plan.seed = 20'240'817;
  plan.transient_create_failure_prob = 0.35;
  FaultInjector a(plan);
  FaultInjector b(plan);
  std::vector<bool> sequence_a;
  std::vector<bool> sequence_b;
  for (int i = 0; i < 500; ++i) {
    sequence_a.push_back(a.next_create_fails());
    sequence_b.push_back(b.next_create_fails());
  }
  EXPECT_EQ(sequence_a, sequence_b);
  EXPECT_EQ(a.transient_failures_injected(), b.transient_failures_injected());
  EXPECT_GT(a.transient_failures_injected(), 0);

  // reset() replays the stream from the start.
  a.reset();
  EXPECT_EQ(a.transient_failures_injected(), 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.next_create_fails(), sequence_b[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultInjectorTest, ConsecutiveFailuresAreBounded) {
  FaultPlan plan;
  plan.transient_create_failure_prob = 1.0;  // worst case: every draw fails
  FaultInjector injector(plan);
  int run = 0;
  int longest_run = 0;
  for (int i = 0; i < 200; ++i) {
    if (injector.next_create_fails()) {
      ++run;
    } else {
      run = 0;
    }
    longest_run = std::max(longest_run, run);
  }
  // The forced success caps every run at kMaxConsecutiveTransientFailures.
  EXPECT_EQ(longest_run, 4);
}

class NvmlFaultTest : public ::testing::Test {
 protected:
  GpuCluster cluster_{2};
  NvmlSim nvml_{cluster_};
  DcgmSim dcgm_;
};

TEST_F(NvmlFaultTest, FailDeviceDropsInstancesAndBlocksOperations) {
  nvml_.attach_health_monitor(&dcgm_);
  GlobalInstanceId id;
  ASSERT_EQ(nvml_.create_gpu_instance_with_placement(0, 3, 0, &id), NvmlReturn::kSuccess);

  nvml_.set_time_ms(1'234.0);
  ASSERT_EQ(nvml_.fail_device(0, 79), NvmlReturn::kSuccess);
  EXPECT_TRUE(nvml_.device_lost(0));
  EXPECT_FALSE(nvml_.device_lost(1));
  EXPECT_EQ(cluster_.gpu(0).occupied_mask(), 0);  // XID reset wiped the device

  // Every operation on the lost device reports NVML_ERROR_GPU_IS_LOST.
  EXPECT_EQ(nvml_.create_gpu_instance(0, 1, nullptr), NvmlReturn::kErrorGpuIsLost);
  EXPECT_EQ(nvml_.destroy_gpu_instance(id), NvmlReturn::kErrorGpuIsLost);
  EXPECT_EQ(nvml_.start_mps_daemon(id), NvmlReturn::kErrorGpuIsLost);
  EXPECT_EQ(nvml_.kill_processes(id), NvmlReturn::kErrorGpuIsLost);
  EXPECT_FALSE(nvml_is_transient(NvmlReturn::kErrorGpuIsLost));
  // The healthy neighbour keeps working.
  EXPECT_EQ(nvml_.create_gpu_instance(1, 1, nullptr), NvmlReturn::kSuccess);

  // Double-failing is idempotent: the device simply stays lost.
  EXPECT_EQ(nvml_.fail_device(0), NvmlReturn::kSuccess);
  EXPECT_TRUE(nvml_.device_lost(0));

  // The health watch saw a fatal event with the XID stamped at sim time.
  ASSERT_FALSE(dcgm_.health_events().empty());
  const HealthEvent& event = dcgm_.health_events().front();
  EXPECT_EQ(event.kind, HealthEventKind::kDeviceLost);
  EXPECT_EQ(event.gpu, 0);
  EXPECT_EQ(event.xid, 79);
  EXPECT_DOUBLE_EQ(event.time_ms, 1'234.0);
  const auto device_lost_events = [this](int gpu) {
    return std::count_if(dcgm_.health_events().begin(), dcgm_.health_events().end(),
                         [gpu](const HealthEvent& e) {
                           return e.gpu == gpu && e.kind == HealthEventKind::kDeviceLost;
                         });
  };
  EXPECT_GT(device_lost_events(0), 0);
  EXPECT_EQ(device_lost_events(1), 0);

  // Replacement hardware: the device returns clean and usable.
  ASSERT_EQ(nvml_.restore_device(0), NvmlReturn::kSuccess);
  EXPECT_FALSE(nvml_.device_lost(0));
  EXPECT_EQ(nvml_.create_gpu_instance(0, 7, nullptr), NvmlReturn::kSuccess);
}

TEST_F(NvmlFaultTest, InjectorMakesCreatesFailTransiently) {
  nvml_.attach_health_monitor(&dcgm_);
  FaultPlan plan;
  plan.transient_create_failure_prob = 1.0;
  FaultInjector injector(plan);
  nvml_.set_fault_injector(&injector);

  // Four injected NVML_ERROR_IN_USE, then the forced success.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(nvml_.create_gpu_instance_with_placement(0, 2, 0, nullptr),
              NvmlReturn::kErrorInUse)
        << "attempt " << i;
  }
  EXPECT_TRUE(nvml_is_transient(NvmlReturn::kErrorInUse));
  EXPECT_EQ(nvml_.create_gpu_instance_with_placement(0, 2, 0, nullptr),
            NvmlReturn::kSuccess);
  EXPECT_EQ(injector.transient_failures_injected(), 4);

  // Each injected failure surfaced as a health event.
  int transient_events = 0;
  for (const HealthEvent& event : dcgm_.health_events()) {
    if (event.kind == HealthEventKind::kTransientCreateFailure) ++transient_events;
  }
  EXPECT_EQ(transient_events, 4);

  // Detaching stops the injection.
  nvml_.set_fault_injector(nullptr);
  EXPECT_EQ(nvml_.create_gpu_instance_with_placement(0, 2, 2, nullptr),
            NvmlReturn::kSuccess);
}

}  // namespace
}  // namespace parva::gpu

// gpulet baseline (Choi et al., USENIX ATC'22), as characterised in the
// paper's Sections I/II-A:
//   * MPS percentage partitions on whole GPUs, at most TWO workloads per
//     GPU.
//   * A service whose rate exceeds one partition is split into multiple
//     "gpulets" (chunks).
//   * The first partition on a GPU is sized to its workload's need (10%
//     quanta); the second partition receives ALL remaining resources —
//     which avoids external fragmentation but creates internal slack.
//   * Pairing is admitted using gpulet's interference prediction, which is
//     slightly optimistic (kGpuletContention < kTrueContention); the
//     resulting under-provisioning reproduces the paper's S2 SLO-violation
//     episode.
#pragma once

#include "core/deployment.hpp"
#include "perfmodel/analytical_model.hpp"

namespace parva::baselines {

class GpuletScheduler final : public core::Scheduler {
 public:
  explicit GpuletScheduler(const perfmodel::AnalyticalPerfModel& perf) : perf_(&perf) {}

  std::string name() const override { return "gpulet"; }
  [[nodiscard]] Result<core::ScheduleResult> schedule(std::span<const core::ServiceSpec> services) override;

 private:
  const perfmodel::AnalyticalPerfModel* perf_;
};

}  // namespace parva::baselines

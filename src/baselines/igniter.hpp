// iGniter baseline (Xu et al., TPDS'22), as characterised in the paper's
// Sections I/II-A:
//   * MPS percentage partitions; each service is provisioned ONE partition
//     sized by an interference-aware performance model (5% quanta).
//   * The model's coefficients come from lightweight profiling and carry
//     per-pair error; iGniter compensates by PADDING every allocation —
//     the source of its internal slack.
//   * No mechanism handles request rates beyond a single full-GPU
//     partition, so high-rate scenarios (the paper's S5/S6) fail.
//   * No external-fragmentation handling: partitions are first-fit-decreasing
//     packed; leftover GPU fractions are wasted (~27% in the paper).
#pragma once

#include "core/deployment.hpp"
#include "perfmodel/analytical_model.hpp"

namespace parva::baselines {

class IgniterScheduler final : public core::Scheduler {
 public:
  explicit IgniterScheduler(const perfmodel::AnalyticalPerfModel& perf) : perf_(&perf) {}

  std::string name() const override { return "iGniter"; }
  [[nodiscard]] Result<core::ScheduleResult> schedule(std::span<const core::ServiceSpec> services) override;

 private:
  const perfmodel::AnalyticalPerfModel* perf_;
};

}  // namespace parva::baselines

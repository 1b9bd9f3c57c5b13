// MIG-serving baseline (Tan et al., arXiv:2109.11067), "fast" (greedy)
// algorithm, as characterised in the paper's Sections I/II-B:
//   * Pure MIG, no MPS: one process per instance.
//   * Sizing and placement treated as a cutting-stock-style search: an
//     initial greedy sizing, followed by iterative whole-cluster
//     re-packing refinement — the source of its "very high" scheduling
//     overhead, which grows quickly with the number of services.
//   * The greedy scores favour SLO safety, over-allocating instances
//     (a demand safety factor plus ceil rounding) — the source of its
//     internal slack, most visible at low request rates.
//   * External fragmentation is avoided by scoring: leftover slots are
//     absorbed by growing/adding instances (turning fragmentation into
//     further internal slack).
#pragma once

#include "core/deployment.hpp"
#include "perfmodel/analytical_model.hpp"
#include "profiler/profile_types.hpp"

namespace parva::baselines {

/// MIG-serving ships two optimizers: the greedy "fast" algorithm and a
/// stochastic "slow" algorithm (genetic / Monte-Carlo search in the
/// original; simulated annealing here) that the paper reports taking ~6
/// hours per real-scale scheduling run — we bound it by iteration count.
enum class MigServingMode { kFast, kSlow };

struct MigServingOptions {
  MigServingMode mode = MigServingMode::kFast;
  /// Annealing iterations of the slow algorithm.
  int annealing_iterations = 4000;
};

class MigServingScheduler final : public core::Scheduler {
 public:
  /// Uses single-process profile points only (MIG-serving has no MPS).
  MigServingScheduler(const profiler::ProfileSet& profiles, MigServingOptions options = {})
      : profiles_(&profiles), options_(options) {}

  std::string name() const override {
    return options_.mode == MigServingMode::kSlow ? "MIG-serving-slow" : "MIG-serving";
  }
  [[nodiscard]] Result<core::ScheduleResult> schedule(std::span<const core::ServiceSpec> services) override;

 private:
  const profiler::ProfileSet* profiles_;
  MigServingOptions options_;
};

}  // namespace parva::baselines

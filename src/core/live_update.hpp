// Live reconfiguration with shadow processes (paper Section III-F).
//
// Reconfiguring MIG and MPS takes "milliseconds to a few seconds"; during
// that window the affected service cannot serve. The paper proposes (as
// future work) running shadow processes on spare GPUs so traffic drains to
// the shadow while the primary segments are rebuilt. This module implements
// both update strategies against the simulated control plane and accounts
// the per-service unavailability:
//
//   * kInPlace  — destroy the service's old instances, then create the new
//                 ones; the service is dark for the whole window.
//   * kShadowed — first clone one serving segment per affected service onto
//                 a spare GPU, shift traffic, rebuild the primaries, shift
//                 back, tear the shadow down; downtime is zero at the cost
//                 of temporary spare-GPU capacity.
//
// Control-plane operation costs are configurable; defaults follow the
// ranges NVIDIA documents for MIG instance creation and process launch.
#pragma once

#include <map>

#include "core/deployer.hpp"

namespace parva::core {

enum class UpdateStrategy { kInPlace, kShadowed };

/// Wall-clock cost model of the control-plane operations (ms).
struct ReconfigOpCosts {
  double destroy_instance_ms = 80.0;
  double create_instance_ms = 250.0;
  double start_mps_ms = 40.0;
  double launch_process_ms = 600.0;  ///< model load + CUDA context
};

struct LiveUpdateReport {
  /// Unavailability window per affected service id (0 when shadowed).
  std::map<int, double> downtime_ms;
  /// Total wall-clock of the whole update.
  double makespan_ms = 0.0;
  /// Segments that were not touched at all (other services, or identical
  /// placements in old and new maps).
  int untouched_units = 0;
  int removed_units = 0;
  int added_units = 0;
  int shadow_units = 0;
  /// Shadow instances whose post-shift teardown failed (slice leaked; traffic
  /// was already back on the rebuilt segment, so serving is unaffected).
  int shadow_teardown_failures = 0;

  double worst_downtime_ms() const {
    double worst = 0.0;
    for (const auto& [id, ms] : downtime_ms) worst = std::max(worst, ms);
    return worst;
  }
};

/// Applies a new deployment to a live cluster, unit-diffing against the
/// current one so only changed segments are rebuilt.
class LiveUpdater {
 public:
  LiveUpdater(Deployer& deployer, ReconfigOpCosts costs = {})
      : deployer_(&deployer), costs_(costs) {}

  /// Transitions the cluster from (current, state) to `target`.
  /// On success `state` describes the target deployment's instances.
  /// Units match by (service, GPU, placement, batch, procs): the i-th
  /// current unit with a key keeps the i-th target slot with that key,
  /// surplus current units are torn down in current order, and unmatched
  /// target slots are deployed in target order, each with its own instance.
  /// kShadowed places one shadow segment per affected service on GPUs
  /// beyond the target's count (the spare pool); if no shadow placement is
  /// possible for a service it falls back to in-place for that service.
  [[nodiscard]] Result<LiveUpdateReport> apply(const Deployment& current, DeployedState& state,
                                 const Deployment& target, UpdateStrategy strategy);

 private:
  Deployer* deployer_;
  ReconfigOpCosts costs_;
};

}  // namespace parva::core

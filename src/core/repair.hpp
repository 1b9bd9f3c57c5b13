// Self-healing reconfiguration after device loss.
//
// When a GPU drops out (XID/ECC, surfaced as a DcgmSim kDeviceLost health
// event), every segment it hosted disappears and the affected services run
// degraded until the control loop re-places the displaced demand. This
// module implements that loop, treating the failure as a *reconfigurable
// machine scheduling* step (MIG-Serving, arXiv:2109.11067): the surviving
// placements are kept verbatim, only the displaced units are re-created —
// on surviving GPUs when their geometry has room, on a standby device
// otherwise — and the transition is driven through the LiveUpdater so the
// control-plane cost and per-service downtime are accounted exactly as in
// a planned reconfiguration.
//
// Recovery time = detection latency (health-watch polling) + the live
// update's makespan + any retry backoff the Deployer spent on the way.
#pragma once

#include <span>
#include <vector>

#include "core/live_update.hpp"
#include "telemetry/telemetry.hpp"

namespace parva::core {

/// Time from the failure until the health watch surfaces it (a DCGM
/// polling interval; production loops poll at 100 ms - 1 s).
inline constexpr double kDetectionLatencyMs = 500.0;

struct RepairOptions {
  /// Observability sink (nullptr = disabled). Displacement and repair
  /// completion are mirrored into it; reports are identical either way.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Outcome of one repair pass.
struct RepairReport {
  int lost_gpu = -1;
  int lost_units = 0;
  int replaced_units = 0;
  std::vector<int> affected_services;
  /// Offered-rate capacity (req/s) the failure displaced.
  double displaced_rate = 0.0;
  /// Replacement units created by the repair (subset of `deployment.units`).
  std::vector<DeployedUnit> replacements;
  /// The post-repair deployment: survivors + replacements.
  Deployment deployment;
  /// The live-update transcript of the repair transition.
  LiveUpdateReport update;
  /// Retries/backoff the Deployer spent while re-creating units.
  DeployStats deploy_stats;
  /// End-to-end recovery time: detection + control-plane makespan + backoff.
  double recovery_ms = 0.0;
};

class RepairCoordinator {
 public:
  RepairCoordinator(Deployer& deployer, LiveUpdater& updater, RepairOptions options = {})
      : deployer_(&deployer), updater_(&updater), options_(options) {}

  /// Indices into `deployment.units` of units whose device the control
  /// plane reports lost.
  std::vector<std::size_t> detect_lost_units(const Deployment& deployment) const;

  /// Handles the loss of `lost_gpu`: drops its units from `current`/`state`
  /// (they are already gone on the hardware), computes replacement
  /// placements on surviving GPUs for the displaced demand, and drives the
  /// LiveUpdater to create them in place (the lost units are already
  /// dark, so shadowing buys nothing for them). On success `current` and
  /// `state` describe the repaired deployment.
  [[nodiscard]] Result<RepairReport> handle_gpu_loss(Deployment& current, DeployedState& state,
                                       int lost_gpu);

 private:
  Deployer* deployer_;
  LiveUpdater* updater_;
  RepairOptions options_;
};

}  // namespace parva::core

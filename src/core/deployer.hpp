// The Deployer (paper Section III-F): materialises a deployment map on the
// cluster through the NVML-shaped control plane — create GPU instances at
// their planned placements, start MPS daemons, and launch the inference
// processes.
//
// Robustness: instance creation can fail transiently (NVML_ERROR_IN_USE
// while the driver finishes a teardown). The Deployer retries such
// failures with bounded exponential backoff (8 attempts per slot, 10 ms
// doubling up to 500 ms); when a placement stays blocked it falls back to
// the other legal slots on the same device, in the paper's preference
// order. Retries and backoff are
// accounted in DeployStats so transient faults are invisible in the
// produced deployment and visible only in the metrics.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "core/deployment.hpp"
#include "gpu/nvml_sim.hpp"
#include "perfmodel/analytical_model.hpp"
#include "telemetry/telemetry.hpp"

namespace parva::core {

/// Accounting of one deploy() call's fault handling.
struct DeployStats {
  int transient_retries = 0;     ///< creates repeated after NVML_ERROR_IN_USE
  double backoff_ms = 0.0;       ///< simulated wall-clock spent backing off
  int fallback_placements = 0;   ///< units placed at a non-planned slot

  void merge(const DeployStats& other) {
    transient_retries += other.transient_retries;
    backoff_ms += other.backoff_ms;
    fallback_placements += other.fallback_placements;
  }
};

/// Mapping from deployed units to their live instance ids.
struct DeployedState {
  std::vector<gpu::GlobalInstanceId> unit_instances;  ///< parallel to deployment.units
};

class Deployer {
 public:
  Deployer(gpu::NvmlSim& nvml, const perfmodel::AnalyticalPerfModel& perf)
      : nvml_(&nvml), perf_(&perf) {}

  /// Applies a MIG-backed deployment to the cluster. The cluster must have
  /// enough devices (elastic clusters grow automatically). Every call,
  /// failed or not, updates the fault accounting; a unit that fails part
  /// way through its bring-up releases its instance, while the units
  /// created before it stay live.
  [[nodiscard]] Result<DeployedState> deploy(const Deployment& deployment);

  /// Tears down the instances recorded in `state`. Instances on lost
  /// devices are already gone and are skipped.
  [[nodiscard]] Status teardown(const DeployedState& state);

  /// Fault accounting of the most recent deploy() call.
  const DeployStats& last_deploy_stats() const { return last_stats_; }
  /// Cumulative fault accounting across this Deployer's lifetime.
  const DeployStats& total_stats() const { return total_stats_; }

  /// Observability sink (nullptr = disabled). Instance create/destroy,
  /// retry, backoff and fallback decisions are mirrored into it; the
  /// produced deployments are identical either way.
  void set_telemetry(telemetry::Telemetry* telemetry) { telemetry_ = telemetry; }

  gpu::NvmlSim& nvml() { return *nvml_; }

 private:
  /// deploy() without the accounting: creates, configures and launches each
  /// unit in order, adding its retries to `stats`.
  [[nodiscard]] Result<DeployedState> deploy_units(const Deployment& deployment,
                                                   DeployStats& stats);

  /// Creates one unit's instance, retrying transient failures with
  /// exponential backoff and falling back to alternate legal slots.
  [[nodiscard]] gpu::NvmlReturn create_instance_with_retry(const DeployedUnit& unit,
                                             gpu::GlobalInstanceId* out,
                                             DeployStats& stats);

  gpu::NvmlSim* nvml_;
  const perfmodel::AnalyticalPerfModel* perf_;
  telemetry::Telemetry* telemetry_ = nullptr;
  DeployStats last_stats_;
  DeployStats total_stats_;
};

}  // namespace parva::core

// Epoch-based autoscaling on top of ParvaGPU's reconfiguration path.
//
// The paper motivates minimal GPU fleets under *fluctuating* cloud demand;
// this module closes the loop: each epoch it reads the offered rates from a
// trace, re-runs the Segment Configurator for services whose provisioned
// capacity has drifted out of the band [rate, 1.6 x rate], re-places only
// those services (Section III-F), and verifies the epoch in the
// discrete-event simulator. Comparing the integral of GPUs over the day
// against static peak provisioning quantifies the elasticity win.
#pragma once

#include <vector>

#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "serving/cluster_sim.hpp"
#include "serving/trace.hpp"

namespace parva::serving {

/// Shortest epoch the autoscaler accepts. A day holds at most 1,440 such
/// epochs, each verified by its own simulation; a shorter epoch would only
/// multiply that work, and near 1e-300 minutes `t += epoch` stops advancing.
inline constexpr double kMinEpochMinutes = 1.0;

struct AutoscalerOptions {
  /// Epoch length; must be finite and at least kMinEpochMinutes.
  double epoch_minutes = 30.0;
  /// Length of the simulation that verifies each epoch.
  double verify_duration_ms = 2'000.0;

  /// Observability sink (nullptr = disabled). Each epoch emits a decision
  /// event plus fleet-size/reconfiguration counters; reports are identical
  /// either way.
  telemetry::Telemetry* telemetry = nullptr;
};

struct EpochRecord {
  double t_hours = 0.0;
  double multiplier = 1.0;
  int gpus = 0;
  int services_reconfigured = 0;
  double offered_total = 0.0;  ///< sum of offered rates, req/s
  double slo_compliance = 1.0; ///< from the epoch's verification run
  double internal_slack = 0.0;
};

struct AutoscaleReport {
  std::vector<EpochRecord> epochs;
  double gpu_hours = 0.0;        ///< integral of fleet size over the day
  double peak_gpus = 0.0;
  double static_gpu_hours = 0.0; ///< 24 h x the static peak-provisioned fleet
  int total_reconfigurations = 0;

  double saving_vs_static() const {
    return static_gpu_hours <= 0.0 ? 0.0 : 1.0 - gpu_hours / static_gpu_hours;
  }
};

class Autoscaler {
 public:
  Autoscaler(const profiler::ProfileSet& profiles, const perfmodel::AnalyticalPerfModel& perf,
             AutoscalerOptions options = {})
      : profiles_(&profiles), perf_(&perf), options_(options) {}

  /// Runs one simulated day of the base services under the trace. Returns
  /// kInvalidArgument, before any epoch runs, when the epoch is not finite
  /// or shorter than kMinEpochMinutes.
  [[nodiscard]] Result<AutoscaleReport> run_day(std::span<const core::ServiceSpec> base_services,
                                  const RateTrace& trace) const;

 private:
  const profiler::ProfileSet* profiles_;
  const perfmodel::AnalyticalPerfModel* perf_;
  AutoscalerOptions options_;
};

}  // namespace parva::serving

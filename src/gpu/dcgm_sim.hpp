// DCGM-shaped health-watch stream.
//
// NvmlSim reports device losses and injected transient create failures
// here as HealthEvents, the way DCGM surfaces fatal XIDs and driver errors
// to a production control loop. SM activity (the internal-slack metric of
// Eq. 3) is not counted here: the discrete-event simulator counts each
// unit's busy SM-time itself (SimulationResult::unit_activity).
#pragma once

#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace parva::gpu {

/// Health-watch event categories (DCGM_HEALTH_WATCH_* analogues).
enum class HealthEventKind {
  kDeviceLost,             ///< XID-style whole-GPU loss (fatal)
  kTransientCreateFailure, ///< NVML_ERROR_IN_USE on instance creation
};

const char* to_string(HealthEventKind kind);

/// One health event surfaced by the simulated health watches. The repair
/// path (core/repair.hpp) responds to a kDeviceLost event exactly as a
/// production control loop responds to DCGM's fatal XID notifications.
struct HealthEvent {
  double time_ms = 0.0;
  int gpu = -1;
  int xid = 0;  ///< nonzero for device-loss events
  HealthEventKind kind = HealthEventKind::kDeviceLost;
  std::string detail;
};

class DcgmSim {
 public:
  /// Appends a health event to the watch stream.
  void record_health_event(HealthEvent event);

  /// Observability sink (nullptr = disabled). Health events are mirrored
  /// into it (a kHealthEvent per record plus per-kind counters); the watch
  /// stream itself is identical either way.
  void set_telemetry(telemetry::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Events recorded so far, in arrival order.
  const std::vector<HealthEvent>& health_events() const { return health_events_; }

 private:
  std::vector<HealthEvent> health_events_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace parva::gpu

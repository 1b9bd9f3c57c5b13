// DCGM-shaped SM-activity accounting.
//
// The paper's internal-slack metric (Eq. 3) is computed from DCGM's
// "SM activity" field: the fraction of (SMs x time) an entity kept busy
// during a window. The discrete-event simulator feeds busy intervals into
// this store; metric code queries averaged activity per instance.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "gpu/gpu_cluster.hpp"
#include "telemetry/telemetry.hpp"

namespace parva::gpu {

/// Accumulated activity for one MIG instance over an observation window.
struct ActivityRecord {
  double busy_sm_ms = 0.0;   ///< integral of (active SMs x time)
  double window_ms = 0.0;    ///< observation window length
  int sms = 0;               ///< SMs granted to the instance

  /// DCGM SM activity in [0,1]: busy SM-time over granted SM-time.
  double sm_activity() const {
    const double denom = window_ms * static_cast<double>(sms);
    return denom <= 0.0 ? 0.0 : busy_sm_ms / denom;
  }
};

struct GlobalInstanceIdLess {
  bool operator()(const GlobalInstanceId& a, const GlobalInstanceId& b) const {
    return a.gpu != b.gpu ? a.gpu < b.gpu : a.handle < b.handle;
  }
};

/// Health-watch event categories (DCGM_HEALTH_WATCH_* analogues).
enum class HealthEventKind {
  kDeviceLost,             ///< XID-style whole-GPU loss (fatal)
  kTransientCreateFailure, ///< NVML_ERROR_IN_USE on instance creation
};

const char* to_string(HealthEventKind kind);

/// One health event surfaced by the simulated health watches. The repair
/// path (core/repair.hpp) consumes kDeviceLost events exactly as a
/// production control loop consumes DCGM's fatal XID notifications.
struct HealthEvent {
  double time_ms = 0.0;
  int gpu = -1;
  int xid = 0;  ///< nonzero for device-loss events
  HealthEventKind kind = HealthEventKind::kDeviceLost;
  std::string detail;
};

class DcgmSim {
 public:
  /// Registers an instance for monitoring with its SM grant.
  void watch(GlobalInstanceId id, int sms);

  /// Records `busy_sm_ms` of SM-time consumed within the instance.
  void add_busy(GlobalInstanceId id, double busy_sm_ms);

  /// Closes the observation window at `window_ms` for all instances.
  void close_window(double window_ms);

  /// Returns the record for an instance (zeroes when unknown).
  ActivityRecord activity(GlobalInstanceId id) const;

  /// All watched instances.
  std::vector<GlobalInstanceId> watched() const;

  /// Appends a health event to the watch stream.
  void record_health_event(HealthEvent event);

  /// Observability sink (nullptr = disabled). Health events are mirrored
  /// into it (a kHealthEvent per record plus per-kind counters); the watch
  /// stream itself is identical either way.
  void set_telemetry(telemetry::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Events recorded so far, in arrival order.
  const std::vector<HealthEvent>& health_events() const { return health_events_; }

  /// Returns and removes all pending events (a control loop's poll).
  std::vector<HealthEvent> drain_health_events();

  /// True when any fatal (device-loss) event is pending for `gpu`.
  bool device_unhealthy(int gpu) const;

  void clear();

 private:
  std::map<GlobalInstanceId, ActivityRecord, GlobalInstanceIdLess> records_;
  std::vector<HealthEvent> health_events_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace parva::gpu

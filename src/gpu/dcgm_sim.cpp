#include "gpu/dcgm_sim.hpp"

namespace parva::gpu {

const char* to_string(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kDeviceLost: return "device_lost";
    case HealthEventKind::kTransientCreateFailure: return "transient_create_failure";
  }
  return "unknown";
}

void DcgmSim::record_health_event(HealthEvent event) {
  if (telemetry_ != nullptr) {
    telemetry_->events().record(telemetry::EventKind::kHealthEvent, event.time_ms,
                                event.gpu, /*service_id=*/-1,
                                static_cast<double>(event.xid), event.detail);
    telemetry_->metrics()
        .counter("parva_dcgm_health_events_total", "Health-watch events surfaced",
                 std::string("kind=\"") + to_string(event.kind) + "\"")
        .inc();
  }
  health_events_.push_back(std::move(event));
}

}  // namespace parva::gpu

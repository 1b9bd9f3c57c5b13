#include "gpu/dcgm_sim.hpp"

namespace parva::gpu {

const char* to_string(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kDeviceLost: return "device_lost";
    case HealthEventKind::kTransientCreateFailure: return "transient_create_failure";
  }
  return "unknown";
}

void DcgmSim::watch(GlobalInstanceId id, int sms) {
  ActivityRecord& record = records_[id];
  record.sms = sms;
}

void DcgmSim::add_busy(GlobalInstanceId id, double busy_sm_ms) {
  const auto it = records_.find(id);
  if (it == records_.end()) return;  // unwatched entities are ignored, as in DCGM
  it->second.busy_sm_ms += busy_sm_ms;
}

void DcgmSim::close_window(double window_ms) {
  for (auto& [id, record] : records_) record.window_ms = window_ms;
}

ActivityRecord DcgmSim::activity(GlobalInstanceId id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? ActivityRecord{} : it->second;
}

std::vector<GlobalInstanceId> DcgmSim::watched() const {
  std::vector<GlobalInstanceId> ids;
  ids.reserve(records_.size());
  for (const auto& [id, record] : records_) ids.push_back(id);
  return ids;
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

std::vector<HealthEvent> DcgmSim::drain_health_events() {
  std::vector<HealthEvent> drained = std::move(health_events_);
  health_events_.clear();
  return drained;
}

bool DcgmSim::device_unhealthy(int gpu) const {
  for (const HealthEvent& event : health_events_) {
    if (event.gpu == gpu && event.kind == HealthEventKind::kDeviceLost) return true;
  }
  return false;
}

void DcgmSim::clear() {
  records_.clear();
  health_events_.clear();
}

}  // namespace parva::gpu

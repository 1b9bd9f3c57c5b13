#include "telemetry/event_log.hpp"

namespace parva::telemetry {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRequestShed: return "request_shed";
    case EventKind::kBatchCompleted: return "batch_completed";
    case EventKind::kLlmAdmissionReject: return "llm_admission_reject";
    case EventKind::kLlmEviction: return "llm_eviction";
    case EventKind::kGpuFailure: return "gpu_failure";
    case EventKind::kUnitActivated: return "unit_activated";
    case EventKind::kInstanceCreated: return "instance_created";
    case EventKind::kInstanceDestroyed: return "instance_destroyed";
    case EventKind::kCreateRetry: return "create_retry";
    case EventKind::kFallbackPlacement: return "fallback_placement";
    case EventKind::kEpochDecision: return "epoch_decision";
    case EventKind::kDisplacement: return "displacement";
    case EventKind::kRepairCompleted: return "repair_completed";
    case EventKind::kPlanDiff: return "plan_diff";
    case EventKind::kScheduleCompleted: return "schedule_completed";
    case EventKind::kHealthEvent: return "health_event";
  }
  return "unknown";
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void EventLog::record(Event event) {
  MutexLock lock(mutex_);
  append(std::move(event));
}

void EventLog::append(Event event) {
  event.seq = next_seq_++;
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void EventLog::record(EventKind kind, double t_ms, int gpu, int service_id, double value,
                      std::string detail) {
  Event event;
  event.kind = kind;
  event.t_ms = t_ms;
  event.gpu = gpu;
  event.service_id = service_id;
  event.value = value;
  event.detail = std::move(detail);
  record(std::move(event));
}

void EventLog::merge(const EventLog& other) {
  std::vector<Event> incoming;
  std::size_t incoming_dropped = 0;
  {
    MutexLock lock(other.mutex_);
    incoming = other.events_;
    incoming_dropped = other.dropped_;
  }
  MutexLock lock(mutex_);
  for (Event& event : incoming) append(std::move(event));
  next_seq_ += incoming_dropped;
  dropped_ += incoming_dropped;
}

std::vector<Event> EventLog::snapshot() const {
  MutexLock lock(mutex_);
  return events_;
}

std::size_t EventLog::size() const {
  MutexLock lock(mutex_);
  return events_.size();
}

std::size_t EventLog::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

}  // namespace parva::telemetry

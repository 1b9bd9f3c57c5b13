// Structured event tracing: a bounded, thread-safe log of typed spans and
// events from the control plane (Deployer, Reconfigurer, RepairCoordinator,
// Autoscaler) and the serving loop (cluster_sim). Events carry simulated
// time, not wall clock, so a log replays identically run-to-run and the
// JSON-lines export is golden-testable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace parva::telemetry {

/// Event taxonomy. One enum across subsystems so a merged log reads as a
/// single audit trail of what the fleet did.
enum class EventKind : std::uint8_t {
  // serving/cluster_sim
  kRequestShed,     ///< dropped by a failure (dying unit or no live unit)
  kBatchCompleted,  ///< one served batch (emitted only with request_events)
  kLlmAdmissionReject,  ///< batch refused: KV ledger could not fit it
  kLlmEviction,         ///< resident batch evicted to free KV capacity
  kGpuFailure,      ///< XID-style device loss executed mid-run
  kUnitActivated,   ///< repair replacement came online
  // core/deployer + gpu/nvml_sim
  kInstanceCreated,
  kInstanceDestroyed,
  kCreateRetry,         ///< transient NVML_ERROR_IN_USE, will back off
  kFallbackPlacement,   ///< planned slot stayed blocked; alternate slot used
  // serving/autoscaler
  kEpochDecision,
  // core/repair
  kDisplacement,     ///< units displaced by a device loss
  kRepairCompleted,  ///< replacements live; value = recovery_ms
  // core/reconfigure + core/parvagpu
  kPlanDiff,           ///< segments removed/added/untouched by an update
  kScheduleCompleted,  ///< one full scheduling run; value = delay_ms
  // gpu/dcgm_sim
  kHealthEvent,
};

const char* to_string(EventKind kind);

/// One log record. `gpu`, `service_id`, and `value` are kind-specific
/// (negative / zero when not meaningful); `detail` holds small free-form
/// `key=value` payload for fields that do not fit the fixed slots.
struct Event {
  std::uint64_t seq = 0;  ///< assigned by the log; stable sort key
  double t_ms = 0.0;      ///< simulated time
  EventKind kind = EventKind::kRequestShed;
  int gpu = -1;
  int service_id = -1;
  double value = 0.0;
  std::string detail;
};

/// Bounded append-only log. Appends beyond the capacity are counted in
/// dropped() rather than silently discarded, so exports can state their own
/// completeness.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 65536);

  void record(Event event);

  /// Convenience append.
  void record(EventKind kind, double t_ms, int gpu = -1, int service_id = -1,
              double value = 0.0, std::string detail = "");

  /// Appends `other`'s events in order after this log's, numbering them
  /// on from this log's sequence, then advances the sequence past
  /// `other`'s drops and counts them as drops here. Copies `other` first,
  /// so it never holds both locks.
  void merge(const EventLog& other);

  std::vector<Event> snapshot() const;
  std::size_t size() const;
  std::size_t dropped() const;
  std::size_t capacity() const { return capacity_; }

 private:
  void append(Event event) PARVA_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<Event> events_ PARVA_GUARDED_BY(mutex_);
  const std::size_t capacity_;  ///< immutable after construction; capacity() is lock-free
  std::uint64_t next_seq_ PARVA_GUARDED_BY(mutex_) = 0;
  std::size_t dropped_ PARVA_GUARDED_BY(mutex_) = 0;
};

}  // namespace parva::telemetry

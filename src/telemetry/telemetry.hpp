// The telemetry handle wired through the stack: one MetricsRegistry plus
// one EventLog behind a nullable pointer.
//
// Every instrumented component takes a `Telemetry*` (via its options struct
// or a setter) and treats nullptr as "telemetry disabled": no registration,
// no recording, no allocation — the disabled path costs one pointer test.
// All existing outputs (CSVs, determinism fingerprints) are byte-identical
// whether telemetry is on or off, because instrumentation only *reads*
// simulation and control-plane state; it never participates in a decision
// or consumes randomness.
#pragma once

#include "telemetry/event_log.hpp"
#include "telemetry/metrics_registry.hpp"

namespace parva::telemetry {

struct TelemetryOptions {
  /// Emit per-batch serving events (kBatchCompleted). High volume — a DES
  /// run serves millions of batches — so off by default; counters and the
  /// latency histogram always aggregate regardless.
  bool request_events = false;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {}) : options_(options) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }
  const TelemetryOptions& options() const { return options_; }

 private:
  TelemetryOptions options_;
  MetricsRegistry metrics_;
  EventLog events_;
};

}  // namespace parva::telemetry

// Discrete-event simulation of the inference-serving cluster.
//
// Executes any Deployment (ParvaGPU's or a baseline's) under paced request
// arrivals at each service's rate (ArrivalProcess::kDeterministic, the
// default; Poisson and bursty arrivals are options):
//   * each deployed unit runs `procs` concurrent server processes, each
//     serving batches up to the unit's configured batch size;
//   * requests are dispatched to the unit with the lowest expected delay
//     (queue backlog over capacity), matching a front-end load balancer;
//   * a free process immediately serves whatever is queued (up to the
//     batch size) — adaptive batching, no assembly stalls;
//   * batch service times are the unit's ground-truth latency (including
//     any MPS interference inflation baked into actual_latency_ms) scaled
//     to the actual fill level, with multiplicative jitter;
//   * per-batch SM-time is charged to the unit's DCGM-style activity
//     counter (SimulationResult::unit_activity), from which Eq. 3 internal
//     slack is measured exactly as the paper does.
//
// SLO accounting follows Section IV-C1: a batch violates when any request
// it contains exceeds the service's (full) SLO latency from arrival to
// completion; the compliance rate is 1 - violating/total batches.
//
// Fault execution: a FaultPlan's scheduled GPU losses run mid-simulation —
// every unit on the failed device stops serving, its queued and in-flight
// requests are shed, and requests arriving for a service with no live unit
// are shed on arrival. Replacement units produced by the repair path
// (core/repair.hpp) enter the deployment dormant and activate at their
// scheduled time, so SLO compliance is measured *through* the failure:
// the result splits into pre-failure / degraded / post-recovery phases and
// an optional bucketed compliance timeline.
//
// Sharded execution (DESIGN.md §4.5): `options.shards` partitions the
// services (and their units) across N independent sub-engines that advance
// in conservative time windows; the coordinator applies the one
// cross-shard event, a GPU failure, at the window barriers. Every event
// source carries a canonical (time, seq) key that is a pure function of the
// workload (see shard_engine.hpp), and all randomness is drawn from
// per-service / per-unit streams, so the merged output — results, CSV
// exports, determinism fingerprints, telemetry — is byte-identical for
// every shard count and thread schedule
// (tests/serving/parallel_engine_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/deployment.hpp"
#include "gpu/fault_plan.hpp"
#include "perfmodel/analytical_model.hpp"
#include "serving/llm_engine.hpp"
#include "serving/shard_engine.hpp"
#include "telemetry/telemetry.hpp"

namespace parva {
class ThreadPool;
}

namespace parva::serving {

/// Request arrival process. The paper's evaluation drives each service at a
/// "specified request rate" (a paced load generator), which kDeterministic
/// models; kPoisson adds open-loop burstiness for robustness studies.
/// kBursty models streaming chat traffic: each gap is exponential at
/// either a boosted burst rate or a compensating slow rate, preserving the
/// offered rate overall (constants in cluster_sim.cpp, DESIGN.md §4.7).
enum class ArrivalProcess { kDeterministic, kPoisson, kBursty };

/// A unit that starts dormant and comes up mid-run (a repair replacement).
struct UnitActivation {
  std::size_t unit_index = 0;  ///< index into deployment.units
  double at_ms = 0.0;          ///< activation time
};

struct SimulationOptions {
  double duration_ms = 20'000.0;  ///< simulated time after warm-up
  double warmup_ms = 2'000.0;     ///< discarded start-up transient
  std::uint64_t seed = 42;
  ArrivalProcess arrivals = ArrivalProcess::kDeterministic;

  /// Scheduled faults executed mid-run (nullptr = healthy fleet). Only the
  /// plan's gpu_failures are interpreted here; transient create faults act
  /// on the control plane, not on serving.
  const gpu::FaultPlan* fault_plan = nullptr;

  /// Units that are dormant at t=0 and activate mid-run (repair
  /// replacements). Indices refer to the simulated deployment's units.
  std::vector<UnitActivation> activations;

  /// Boundary between the degraded and recovered phases. When 0 it is
  /// derived from the latest activation (or never reached without one).
  double recovered_at_ms = 0.0;

  /// Bucket width for the compliance timeline; 0 disables the timeline.
  double timeline_bucket_ms = 0.0;

  /// Observability sink (nullptr = disabled, the default). The simulator
  /// only *writes* counters/histograms/events derived from its existing
  /// accounting; results are byte-identical with telemetry on or off.
  /// Thread-safe, but concurrent runs sharing one sink add their latency
  /// sums in lock order; run_seeds gives each run its own sink and merges
  /// them in seed order instead.
  telemetry::Telemetry* telemetry = nullptr;

  /// Shard count for parallel execution (1 = single sub-engine, the
  /// default). Services are partitioned deterministically (LPT on offered
  /// rate); outputs are byte-identical for every value.
  int shards = 1;

  /// Pool that executes shard windows concurrently. nullptr runs shards
  /// sequentially on the calling thread — same outputs, no parallelism —
  /// so decomposition correctness never depends on a pool being present.
  /// Sharing one pool between a sweep (sim_runner) and the shards of its
  /// jobs is safe: ThreadPool::parallel_for is nesting-safe (the caller
  /// participates), so this may be the very pool run() was submitted to.
  ThreadPool* shard_pool = nullptr;

  /// Generative-LLM admission policy (DESIGN.md §4.7): refuse a batch
  /// whose worst-case KV footprint does not fit, or admit it on its prompt
  /// and evict the oldest resident batches when decode outgrows the
  /// ledger. Only services carrying a core::LlmWorkload engage it;
  /// fixed-latency services are byte-identically unaffected by either
  /// setting.
  LlmSimOptions llm;
};

/// Per-service outcome.
struct ServiceOutcome {
  int service_id = -1;
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t violated_batches = 0;
  /// Requests dropped by failures: queued/in-flight on a dying unit, or
  /// arriving while the service had no live unit.
  std::size_t shed_requests = 0;
  Samples request_latency_ms;
  double offered_rate = 0.0;
  double measured_rate = 0.0;  ///< completed requests / duration

  // Generative-LLM accounting (all zero for fixed-latency services).
  /// Requests refused admission because the KV ledger could not fit them.
  std::size_t rejected_requests = 0;
  /// Requests evicted mid-decode to free KV capacity for newer work.
  std::size_t evicted_requests = 0;
  /// Total decode tokens emitted by completed requests.
  std::uint64_t generated_tokens = 0;
  /// Arrival -> prefill completion (time to first token), measured batches.
  Samples prefill_latency_ms;
  /// Prefill completion -> last token, measured batches with decode work.
  Samples decode_latency_ms;

  double compliance() const {
    return batches == 0 ? 1.0
                        : 1.0 - static_cast<double>(violated_batches) /
                                    static_cast<double>(batches);
  }
};

/// Request-level compliance of one failure phase of the run. Unlike the
/// batch-level service metric, shed requests count against the phase — a
/// request dropped by a device loss is an SLO miss, so degraded-mode
/// compliance genuinely dips even when the surviving units keep every
/// batch they serve within its deadline.
struct PhaseStats {
  std::size_t batches = 0;
  std::size_t violated_batches = 0;
  std::size_t requests = 0;           ///< requests completed in the phase
  std::size_t violated_requests = 0;  ///< completed past the SLO
  std::size_t shed_requests = 0;      ///< dropped by failures in the phase

  double compliance() const {
    const std::size_t offered = requests + shed_requests;
    return offered == 0 ? 1.0
                        : 1.0 - static_cast<double>(violated_requests + shed_requests) /
                                    static_cast<double>(offered);
  }
};

/// One bucket of the compliance-vs-time series.
struct TimelineBucket {
  double t_ms = 0.0;  ///< bucket start (relative to warm-up end)
  std::size_t batches = 0;
  std::size_t violated_batches = 0;
  std::size_t shed_requests = 0;

  double compliance() const {
    return batches == 0 ? 1.0
                        : 1.0 - static_cast<double>(violated_batches) /
                                    static_cast<double>(batches);
  }
};

struct SimulationResult {
  std::vector<ServiceOutcome> services;
  /// Discrete events the engine processed (arrivals, completions, faults,
  /// activations) — the numerator of the events/sec engine metric.
  std::size_t events_processed = 0;
  /// DCGM-style SM activity per deployed unit (parallel to deployment.units).
  std::vector<double> unit_activity;
  /// Eq. 3 internal slack measured from the activities.
  double internal_slack = 0.0;

  /// Failure bookkeeping (negative when the run saw no device loss).
  double failure_at_ms = -1.0;
  double recovered_at_ms = -1.0;
  std::size_t requests_shed = 0;
  /// Compliance split by phase: before the first device loss, between loss
  /// and recovery (degraded mode), and after recovery.
  PhaseStats pre_failure;
  PhaseStats degraded;
  PhaseStats post_recovery;

  /// Compliance-vs-time series (empty unless timeline_bucket_ms > 0).
  std::vector<TimelineBucket> timeline;

  /// Execution metadata (one entry per shard; size == options.shards).
  /// `shard_events` is deterministic (part of the workload partition);
  /// `shard_busy_ms` is measured wall-clock per shard — the scaling
  /// numerator for bench reporting — and, like any timing, is excluded
  /// from determinism fingerprints.
  std::vector<std::size_t> shard_events;
  std::vector<double> shard_busy_ms;

  /// LLM totals across services (zero when no service carries a workload).
  std::size_t requests_rejected = 0;
  std::size_t requests_evicted = 0;
  std::uint64_t generated_tokens = 0;
  /// Peak KV-ledger occupancy per deployed unit as a fraction of its
  /// capacity (parallel to deployment.units; 0 for fixed-latency units and
  /// for LLM units whose ledger is disabled).
  std::vector<double> unit_kv_peak;

  /// Batch-weighted SLO compliance across all services (Fig. 8 metric).
  double overall_compliance() const;
  /// Lowest per-service compliance.
  double worst_compliance() const;
};

class ClusterSimulation {
 public:
  ClusterSimulation(const core::Deployment& deployment,
                    std::span<const core::ServiceSpec> services,
                    const perfmodel::AnalyticalPerfModel& perf)
      : deployment_(&deployment), services_(services.begin(), services.end()), perf_(&perf) {}

  /// Replays the deployment. Throws std::logic_error (PARVA_REQUIRE) on a
  /// bad option, on a service core::validate refuses or a service list in
  /// which two services share an id, and on a unit whose service id matches
  /// no service (naming the unit index and the id).
  SimulationResult run(const SimulationOptions& options) const;

 private:
  const core::Deployment* deployment_;
  std::vector<core::ServiceSpec> services_;
  const perfmodel::AnalyticalPerfModel* perf_;
};

}  // namespace parva::serving

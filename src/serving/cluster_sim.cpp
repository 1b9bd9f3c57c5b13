#include "serving/cluster_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"
#include "core/metrics.hpp"
#include "gpu/arch.hpp"
#include "perfmodel/llm_model.hpp"
#include "serving/event_engine.hpp"
#include "serving/shard_engine.hpp"

namespace parva::serving {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

// Rng::stream tags come from the central RngStreamTag registry in
// common/rng.hpp (audit rule R10): one family of independent streams per
// entity kind. The LLM tags are drawn only by services carrying an
// LlmWorkload, so the arrival/jitter draw sequences of fixed-latency
// services are untouched by the generative path (the degenerate contract
// of DESIGN.md §4.7).

// Bits of the per-unit emission counter inside a BufferedRecord sub-key
// (see shard_engine.hpp: sub = (global unit + 1) << 20 | emission).
constexpr unsigned kSubEmissionBits = 20;

// kBursty arrival shaping (DESIGN.md §4.7): a gap draws the boosted rate
// `rate * kBurstFactor` with probability kBurstProb, else the slow rate
// `rate * kBurstSlow`, chosen so the two-phase mixture keeps the offered
// rate: E[gap] = p/(r*f) + (1-p)/(r*slow) = 1/r.
constexpr double kBurstFactor = 6.0;
constexpr double kBurstProb = 0.2;
constexpr double kBurstSlow = (1.0 - kBurstProb) / (1.0 - kBurstProb / kBurstFactor);

struct Request {
  int service_id = -1;
  double arrival_ms = 0.0;
  // Token counts drawn at arrival from the service's token stream; both
  // zero for fixed-latency services (no draws consumed).
  int prompt_tokens = 0;
  int gen_tokens = 0;
};

/// FIFO of waiting requests: a flat vector with a head cursor. pop is a
/// cursor bump, and draining into a batch is one contiguous copy; storage
/// compacts whenever the queue empties (which underloaded units do
/// constantly), so the backing vector stops reallocating at steady state.
class RequestQueue {
 public:
  bool empty() const { return head_ == store_.size(); }
  std::size_t size() const { return store_.size() - head_; }

  void push_back(const Request& request) { store_.push_back(request); }

  /// Moves the first `take` requests into `out` (appended) in one copy.
  void drain_into(std::vector<Request>& out, std::size_t take) {
    out.insert(out.end(), store_.begin() + static_cast<std::ptrdiff_t>(head_),
               store_.begin() + static_cast<std::ptrdiff_t>(head_ + take));
    head_ += take;
    compact_if_empty();
  }

  const Request* begin() const { return store_.data() + head_; }
  const Request* end() const { return store_.data() + store_.size(); }

  void clear() {
    store_.clear();
    head_ = 0;
  }

 private:
  void compact_if_empty() {
    if (head_ == store_.size()) {
      store_.clear();
      head_ = 0;
    }
  }

  std::vector<Request> store_;
  std::size_t head_ = 0;
};

/// Pool payload: the requests of one in-service batch plus the decode-phase
/// state of the generative path (untouched by fixed-latency units).
struct Batch {
  std::vector<Request> requests;
  /// Decode tokens left per request; sized at the Prefill event, empty
  /// before it (and always empty on fixed-latency units).
  std::vector<int> remaining;
  int live = 0;                  ///< requests still decoding
  double kv_bytes = 0.0;         ///< KV-ledger bytes this batch holds
  double prefill_done_ms = 0.0;  ///< first-token time (0: not prefilled yet)
  /// Victim-choice stamps from the owning unit's monotone counter.
  std::uint64_t admitted_stamp = 0;
  std::uint64_t touched_stamp = 0;
  bool measured = false;  ///< front request arrived after warm-up
  bool violated = false;  ///< some finished request missed the SLO

  void clear() {
    requests.clear();
    remaining.clear();
    live = 0;
    kv_bytes = 0.0;
    prefill_done_ms = 0.0;
    admitted_stamp = 0;
    touched_stamp = 0;
    measured = false;
    violated = false;
  }
};

/// Runtime state of one deployed unit.
struct UnitState {
  const core::DeployedUnit* unit = nullptr;
  const perfmodel::WorkloadTraits* traits = nullptr;
  RequestQueue queue;
  int idle_processes = 0;
  bool up = true;                ///< serving (false: dormant or failed)
  double busy_sm_ms = 0.0;       ///< accumulated within the measurement window
  /// Ground-truth capacity, clamped away from zero for the delay score.
  double capacity = 1e-9;
  /// Batch-pool slots currently serving on this unit (at most `procs`).
  std::vector<std::uint32_t> in_flight_slots;
  /// Requests inside those slots: the in-service half of the dispatch
  /// backlog, maintained incrementally instead of summed per arrival.
  std::size_t in_flight_requests = 0;
  /// fill_scale[take]: actual_latency_ms multiplier for a partially filled
  /// batch — the same partial/full work ratio the model computes, evaluated
  /// once per fill level instead of per batch.
  std::vector<double> fill_scale;
  /// sm_work[take]: SM-time charged for a batch of `take` requests
  /// (batch_work_ms * kSmsPerGpc), precomputed per fill level.
  std::vector<double> sm_work;

  // ---- Generative-LLM execution state (DESIGN.md §4.7). ----
  bool is_llm = false;  ///< owning service carries an LlmWorkload
  const perfmodel::LlmTraits* llm_traits = nullptr;
  /// Fraction of the profiled batch latency charged to the Prefill event;
  /// exactly 1.0 for workloads with no generation phase, so a zero-token
  /// LLM batch reproduces the fixed-latency service time bit-for-bit.
  double prefill_share = 1.0;
  double expected_prompt = 0.0;  ///< workload prompt mean (prefill anchor)
  double kv_per_token = 0.0;     ///< bytes per resident token (0: no ledger)
  double kv_capacity = 0.0;      ///< ledger capacity in bytes
  double kv_used = 0.0;
  double kv_peak = 0.0;
  std::uint64_t next_stamp = 0;  ///< admission/touch stamp source
  /// Slots currently holding ledger bytes (eviction candidates).
  std::vector<std::uint32_t> resident;
  /// decode_step_ms[live]: wall time of one decode chunk at that many live
  /// requests, precomputed from the token-rate law.
  std::vector<double> decode_step_ms;
};

using BatchPool = SlotPool<Batch>;

/// Static run parameters shared read-only by every shard. Every field is a
/// pure function of (options, deployment, services) — never of execution —
/// so shards consult them without synchronisation.
struct RunConfig {
  double warmup_ms = 0.0;
  double horizon_ms = 0.0;
  double timeline_bucket_ms = 0.0;
  std::size_t timeline_buckets = 0;
  ArrivalProcess arrivals = ArrivalProcess::kDeterministic;
  /// Canonical key of the first scheduled device loss (time < 0: none).
  /// Phase accounting compares event keys against this boundary, which is
  /// exactly the single-engine dynamic rule: an event lands pre-failure iff
  /// it precedes the failure in the global (time, seq) order.
  double first_failure_ms = -1.0;
  std::uint64_t first_failure_seq = 0;
  double recovered_at_ms = 0.0;
  bool buffer_records = false;       ///< telemetry sink attached
  bool record_batch_events = false;  ///< EventLog batch records requested
  /// Generative-LLM policies (admission/eviction/dispatch, chunking).
  LlmSimOptions llm;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One local service's event loop: its next pending arrival (each service
/// has at most one outstanding) and a small heap of its own units'
/// completion, prefill, decode and activation events. Services of a shard
/// share only order-free counters and the slot pool, so running each loop
/// to a window bound in turn gives every service the trajectory it has in
/// one global (time, seq) order (DESIGN.md §4.5).
struct ServiceLoop {
  double arrival_ms = kNever;  ///< kNever: no arrival pending
  std::uint64_t arrival_seq = 0;
  SeqStream arrival_keys;  ///< the service's canonical arrival stream
  EventQueue events;
};

/// One sub-engine: the full simulation restricted to a subset of the
/// services (and their units). Between window barriers a shard is touched
/// by exactly one thread, and the barriers (ThreadPool::parallel_for joins)
/// order every handoff to and from the coordinator — the happens-before
/// discipline that replaces locks on all of this state. Aligned to 128
/// bytes so no two shards share a cache line (or an adjacent-line prefetch
/// pair): every event bumps `events_processed`, which without the padding
/// sits on the line holding the next shard's hottest pointers.
struct alignas(128) Shard {
  const RunConfig* cfg = nullptr;

  // Services (local index -> global metadata), in ascending global order.
  std::vector<std::size_t> svc_global;
  std::vector<int> svc_id;
  std::vector<double> svc_slo_ms;
  std::vector<double> svc_rate;
  std::vector<double> paced_gap_ms;
  std::vector<Rng> arrival_rng;
  /// Per-service LLM workload (nullptr: fixed-latency service).
  std::vector<const core::LlmWorkload*> svc_llm;
  std::vector<Rng> token_rng;
  std::vector<Rng> dispatch_rng;
  std::vector<std::uint32_t> rr_cursor;  ///< round-robin dispatch state
  /// loops[s] for local service s, plus one last loop for orphan units
  /// (no matching service), which never arms an arrival.
  std::vector<ServiceLoop> loops;

  // Units (local index -> global metadata), in ascending global order.
  std::vector<UnitState> units;
  std::vector<std::size_t> unit_global;
  std::vector<int> unit_service;  ///< local service index (-1: orphan unit)
  std::vector<Rng> jitter_rng;
  std::vector<SeqStream> completion_seq;
  std::vector<std::uint32_t> svc_unit_off;
  std::vector<std::uint32_t> svc_unit_flat;

  BatchPool batches;

  // Accounting, merged by the coordinator after the last window.
  std::vector<ServiceOutcome> outcomes;
  PhaseStats pre_failure;
  PhaseStats degraded;
  PhaseStats post_recovery;
  std::vector<TimelineBucket> timeline;
  std::vector<BufferedRecord> records;
  std::size_t events_processed = 0;
  double busy_ms = 0.0;  ///< wall-clock spent advancing this shard

  double next_gap_ms(std::size_t s) {
    if (cfg->arrivals == ArrivalProcess::kPoisson) {
      return arrival_rng[s].exponential(svc_rate[s] / 1000.0);
    }
    if (cfg->arrivals == ArrivalProcess::kBursty) {
      // Two-phase exponential mixture: a boosted burst rate with
      // probability kBurstProb, else a compensating slow rate — the mean
      // gap matches the offered rate (DESIGN.md §4.7).
      const double u = arrival_rng[s].next_double();
      const double factor = u < kBurstProb ? kBurstFactor : kBurstSlow;
      return arrival_rng[s].exponential(svc_rate[s] * factor / 1000.0);
    }
    return paced_gap_ms[s];
  }

  /// Arms local service `s` to arrive at `time_ms` under the next key of
  /// its arrival stream.
  void arm_arrival(std::size_t s, double time_ms) {
    loops[s].arrival_ms = time_ms;
    loops[s].arrival_seq = loops[s].arrival_keys.next();
  }

  /// The event heap of unit `ui`'s loop.
  EventQueue& events_of(std::size_t ui) {
    const int s = unit_service[ui];
    return loops[s >= 0 ? static_cast<std::size_t>(s) : loops.size() - 1].events;
  }

  /// Clamped-lognormal token draw: exp(N(log(mean) - s^2/2, s)) rounded to
  /// [1, max]. A zero mean produces zero tokens without touching the
  /// stream; a zero sigma produces the rounded mean with one structure for
  /// every request (still no draw — the count is exact).
  static int sample_tokens(double mean, double sigma, int max_tokens, Rng& rng) {
    if (mean <= 0.0) return 0;
    double tokens = mean;
    if (sigma > 0.0) {
      tokens = std::exp(rng.normal(std::log(mean) - 0.5 * sigma * sigma, sigma));
    }
    const double hi = static_cast<double>(std::max(max_tokens, 1));
    return static_cast<int>(std::lround(std::min(std::max(tokens, 1.0), hi)));
  }

  std::uint64_t unit_sub(std::size_t ui) const {
    return (static_cast<std::uint64_t>(unit_global[ui]) + 1) << kSubEmissionBits;
  }

  PhaseStats* phase_of(double t, std::uint64_t seq) {
    if (cfg->first_failure_ms < 0.0 || t < cfg->first_failure_ms ||
        (t == cfg->first_failure_ms && seq < cfg->first_failure_seq)) {
      return &pre_failure;
    }
    return (cfg->recovered_at_ms > 0.0 && t >= cfg->recovered_at_ms) ? &post_recovery
                                                                     : &degraded;
  }

  TimelineBucket* bucket_of(double t) {
    if (timeline.empty() || t < cfg->warmup_ms) return nullptr;
    const auto idx =
        static_cast<std::size_t>((t - cfg->warmup_ms) / cfg->timeline_bucket_ms);
    return idx < timeline.size() ? &timeline[idx] : nullptr;
  }

  /// Accounts one request dropped by a failure while processing the event
  /// with canonical key (now, seq); `sub` serialises multiple drops under
  /// that key. Pre-warm-up requests are not measured.
  void shed_one(std::size_t s, double request_arrival_ms, double now, std::uint64_t seq,
                std::uint64_t sub) {
    if (request_arrival_ms < cfg->warmup_ms) return;
    ++outcomes[s].shed_requests;
    ++phase_of(now, seq)->shed_requests;
    if (TimelineBucket* bucket = bucket_of(now)) ++bucket->shed_requests;
    if (cfg->buffer_records) {
      records.push_back({now, seq, sub, telemetry::EventKind::kRequestShed,
                         /*gpu=*/-1, svc_id[s], 0.0});
    }
  }

  /// Removes `slot`'s ledger entry and returns its bytes to the unit's KV
  /// capacity. No-op on units whose ledger is disabled.
  void release_ledger(std::size_t ui, std::uint32_t slot) {
    UnitState& state = units[ui];
    if (state.kv_per_token <= 0.0) return;
    Batch& batch = batches[slot].payload;
    state.kv_used -= batch.kv_bytes;
    batch.kv_bytes = 0.0;
    const auto it = std::find(state.resident.begin(), state.resident.end(), slot);
    if (it != state.resident.end()) {
      *it = state.resident.back();
      state.resident.pop_back();
    }
  }

  /// Evicts one resident batch: its unfinished requests are counted as
  /// evicted, its KV bytes return to the ledger, and its process frees.
  /// Releasing the slot bumps the generation, so the batch's pending
  /// Prefill/Decode event goes stale.
  void evict_batch(std::size_t ui, std::uint32_t slot, double now, std::uint64_t seq,
                   std::uint64_t* emission) {
    UnitState& state = units[ui];
    Batch& batch = batches[slot].payload;
    const auto s = static_cast<std::size_t>(unit_service[ui]);
    std::size_t victims = 0;
    if (batch.remaining.empty()) {
      victims = batch.requests.size();  // pre-prefill: nothing finished yet
    } else {
      for (const int left : batch.remaining) {
        if (left > 0) ++victims;
      }
    }
    if (batch.measured) outcomes[s].evicted_requests += victims;
    if (cfg->buffer_records) {
      PARVA_CHECK(*emission >> kSubEmissionBits == 0, "eviction emission overflow");
      records.push_back({now, seq, unit_sub(ui) | (*emission)++,
                         telemetry::EventKind::kLlmEviction, state.unit->gpu_index,
                         svc_id[s], static_cast<double>(victims)});
    }
    release_ledger(ui, slot);
    const auto it =
        std::find(state.in_flight_slots.begin(), state.in_flight_slots.end(), slot);
    PARVA_CHECK(it != state.in_flight_slots.end(), "evicting a batch not in flight");
    *it = state.in_flight_slots.back();
    state.in_flight_slots.pop_back();
    state.in_flight_requests -= batch.requests.size();
    ++state.idle_processes;
    batches.release(slot);
  }

  /// Frees ledger capacity for `need` bytes by evicting resident batches
  /// other than `self`, oldest first by admission (FIFO) or last-touch
  /// (LRU) stamp. Stops when the need fits or no victim remains.
  void evict_until_fits(std::size_t ui, double need, std::uint32_t self, double now,
                        std::uint64_t seq, std::uint64_t* emission) {
    UnitState& state = units[ui];
    while (need > state.kv_capacity - state.kv_used) {
      bool found = false;
      std::uint32_t victim = 0;
      std::uint64_t best_stamp = 0;
      for (const std::uint32_t slot : state.resident) {
        if (slot == self) continue;
        const Batch& batch = batches[slot].payload;
        const std::uint64_t stamp = cfg->llm.eviction == LlmEvictionPolicy::kLru
                                        ? batch.touched_stamp
                                        : batch.admitted_stamp;
        if (!found || stamp < best_stamp) {
          found = true;
          best_stamp = stamp;
          victim = slot;
        }
      }
      if (!found) return;
      evict_batch(ui, victim, now, seq, emission);
    }
  }

  /// Rejects the just-drained batch in `slot`: its requests are refused
  /// admission (counted, not queued again) and the slot is released.
  void reject_batch(std::size_t ui, std::uint32_t slot, double now, std::uint64_t seq,
                    std::uint64_t* emission) {
    UnitState& state = units[ui];
    Batch& batch = batches[slot].payload;
    const auto s = static_cast<std::size_t>(unit_service[ui]);
    if (batch.measured) outcomes[s].rejected_requests += batch.requests.size();
    if (cfg->buffer_records) {
      PARVA_CHECK(*emission >> kSubEmissionBits == 0, "reject emission overflow");
      records.push_back({now, seq, unit_sub(ui) | (*emission)++,
                         telemetry::EventKind::kLlmAdmissionReject, state.unit->gpu_index,
                         svc_id[s], static_cast<double>(batch.requests.size())});
    }
    batches.release(slot);
  }

  /// KV admission for the just-drained batch. kReject reserves the full
  /// prompt+generation footprint up front (decode can never overflow);
  /// kEvict admits on prompt footprint alone and reclaims from residents
  /// when even that does not fit. Returns false when the batch was
  /// rejected (the slot is already released).
  bool admit_llm_batch(std::size_t ui, std::uint32_t slot, double now, std::uint64_t seq,
                       std::uint64_t* emission) {
    UnitState& state = units[ui];
    Batch& batch = batches[slot].payload;
    batch.measured =
        !batch.requests.empty() && batch.requests.front().arrival_ms >= cfg->warmup_ms;
    batch.admitted_stamp = ++state.next_stamp;
    batch.touched_stamp = batch.admitted_stamp;
    if (state.kv_per_token <= 0.0) return true;
    double prompt_tokens = 0.0;
    double total_tokens = 0.0;
    // The batch is summed in admission order, which is fixed per batch;
    // re-sorting here would change golden-pinned exported bytes.
    for (const Request& request : batch.requests) {
      // parva-audit: allow(R14): fixed admission order, see above.
      prompt_tokens += static_cast<double>(request.prompt_tokens);
      // parva-audit: allow(R14): fixed admission order, see above.
      total_tokens += static_cast<double>(request.prompt_tokens + request.gen_tokens);
    }
    const bool reserve_full = cfg->llm.admission == LlmAdmissionPolicy::kReject;
    const double need = state.kv_per_token * (reserve_full ? total_tokens : prompt_tokens);
    if (!reserve_full && need > state.kv_capacity - state.kv_used) {
      evict_until_fits(ui, need, slot, now, seq, emission);
    }
    if (need > state.kv_capacity - state.kv_used) {
      reject_batch(ui, slot, now, seq, emission);
      return false;
    }
    state.kv_used += need;
    batch.kv_bytes = need;
    state.kv_peak = std::max(state.kv_peak, state.kv_used);
    state.resident.push_back(slot);
    return true;
  }

  void start_batch_if_possible(std::size_t ui, double now, std::uint64_t seq,
                               std::uint64_t* emission) {
    UnitState& state = units[ui];
    while (state.up && state.idle_processes > 0 && !state.queue.empty()) {
      const auto take = std::min<std::size_t>(static_cast<std::size_t>(state.unit->batch),
                                              state.queue.size());
      const std::uint32_t slot = batches.acquire();
      Batch& batch = batches[slot].payload;
      state.queue.drain_into(batch.requests, take);
      if (state.is_llm && !admit_llm_batch(ui, slot, now, seq, emission)) {
        continue;  // rejected under memory pressure; the process stays free
      }
      // Service time: ground-truth full-batch latency scaled to the fill
      // level through the work model (partial batches finish faster, via
      // the precomputed fill_scale table), with multiplicative jitter drawn
      // from the unit's own stream — so the draw sequence of a unit is the
      // same no matter which shard hosts it.
      double service_ms = state.unit->actual_latency_ms * state.fill_scale[take];
      if (state.is_llm) {
        // The Prefill event carries the prefill share of the profiled
        // latency, scaled to the batch's actual prompt mass against the
        // workload's expectation. Both factors are exactly 1.0 for a
        // zero-token workload, keeping the product bit-identical to the
        // fixed-latency service time.
        double prompt_scale = 1.0;
        if (state.expected_prompt > 0.0) {
          double prompt_sum = 0.0;
          for (const Request& request : batch.requests) {
            // parva-audit: allow(R14): fixed admission order per batch.
            prompt_sum += static_cast<double>(request.prompt_tokens);
          }
          if (prompt_sum > 0.0) {
            prompt_scale =
                prompt_sum / (static_cast<double>(take) * state.expected_prompt);
          }
        }
        service_ms *= state.prefill_share * prompt_scale;
      }
      service_ms =
          perfmodel::AnalyticalPerfModel::sample_latency_ms(service_ms, jitter_rng[ui]);
      // Charge SM-time (Eq. 3 numerator) within the measurement window.
      if (state.traits != nullptr && now >= cfg->warmup_ms) {
        // One term per dispatched batch, not a bulk reduction.
        // parva-audit: allow(R14): deterministic DES event order.
        state.busy_sm_ms += state.sm_work[take];
      }
      --state.idle_processes;
      state.in_flight_slots.push_back(slot);
      state.in_flight_requests += take;
      SimEvent event;
      event.time_ms = now + service_ms;
      event.seq = completion_seq[ui].next();
      event.kind = state.is_llm ? EventKind::kLlmPrefillDone : EventKind::kBatchComplete;
      event.unit_index = static_cast<int>(ui);
      event.slot = slot;
      event.generation = batches[slot].generation;
      events_of(ui).push(event);
    }
  }

  /// Expected-delay score of a unit for dispatch: backlog (queued + in
  /// service) over ground-truth capacity.
  double delay_score(std::size_t ui) const {
    const UnitState& state = units[ui];
    const double backlog =
        static_cast<double>(state.queue.size() + state.in_flight_requests);
    return backlog / state.capacity;
  }

  /// The default dispatch rule: the live unit with the smallest expected
  /// delay, matching a front-end load balancer. Returns units.size() when
  /// every candidate is down (mid-failure, pre-repair).
  std::size_t choose_least_loaded(std::size_t s) const {
    const std::uint32_t cand_begin = svc_unit_off[s];
    const std::uint32_t cand_end = svc_unit_off[s + 1];
    if (cand_end - cand_begin == 1) {
      // Single-unit service (the common case): the choice is forced, so
      // the delay score is never compared against anything.
      const std::size_t only = svc_unit_flat[cand_begin];
      return units[only].up ? only : units.size();
    }
    bool any_live = false;
    std::size_t chosen = 0;
    double best_score = 0.0;
    for (std::uint32_t idx = cand_begin; idx < cand_end; ++idx) {
      const std::size_t ui = svc_unit_flat[idx];
      if (!units[ui].up) continue;
      const double score = delay_score(ui);
      if (!any_live || score < best_score) {
        any_live = true;
        best_score = score;
        chosen = ui;
      }
    }
    return any_live ? chosen : units.size();
  }

  /// Replica choice for one arriving request. Fixed-latency services (and
  /// the default LLM policy) use least-loaded; LLM services can opt into
  /// round-robin or power-of-two-choices. P2C always consumes exactly two
  /// draws from the service's dispatch stream, so the stream position never
  /// depends on replica liveness.
  std::size_t dispatch_unit(std::size_t s) {
    if (svc_llm[s] == nullptr || cfg->llm.dispatch == LlmDispatchPolicy::kLeastLoaded) {
      return choose_least_loaded(s);
    }
    const std::uint32_t cand_begin = svc_unit_off[s];
    const std::uint32_t count = svc_unit_off[s + 1] - cand_begin;
    if (count == 0) return units.size();
    if (cfg->llm.dispatch == LlmDispatchPolicy::kRoundRobin) {
      // First live replica at or after the per-service cursor; the cursor
      // then moves past it so replicas take turns.
      for (std::uint32_t step = 0; step < count; ++step) {
        const std::uint32_t off = (rr_cursor[s] + step) % count;
        const std::size_t ui = svc_unit_flat[cand_begin + off];
        if (units[ui].up) {
          rr_cursor[s] = (off + 1) % count;
          return ui;
        }
      }
      return units.size();
    }
    // Power-of-two-choices: two uniform probes, lower delay score wins,
    // lower replica offset breaks ties; both probes dead falls back to the
    // full scan (a front end would retry, not drop).
    const auto a = static_cast<std::uint32_t>(dispatch_rng[s].uniform_int(0, count - 1));
    const auto b = static_cast<std::uint32_t>(dispatch_rng[s].uniform_int(0, count - 1));
    const std::size_t first = svc_unit_flat[cand_begin + std::min(a, b)];
    const std::size_t second = svc_unit_flat[cand_begin + std::max(a, b)];
    const bool first_up = units[first].up;
    const bool second_up = units[second].up;
    if (!first_up && !second_up) return choose_least_loaded(s);
    if (!second_up) return first;
    if (!first_up) return second;
    return delay_score(second) < delay_score(first) ? second : first;
  }

  void process_arrival(std::size_t s) {
    const double now = loops[s].arrival_ms;
    const std::uint64_t seq = loops[s].arrival_seq;
    ++events_processed;
    loops[s].arrival_ms = kNever;
    if (now <= cfg->horizon_ms) {
      // Dispatch to a live unit (policy above); a service whose every unit
      // is down sheds the request — the front end has nowhere to send it.
      const std::size_t chosen = dispatch_unit(s);
      if (chosen == units.size()) {
        shed_one(s, now, now, seq, /*sub=*/0);
      } else {
        Request request{svc_id[s], now};
        if (const core::LlmWorkload* workload = svc_llm[s]) {
          request.prompt_tokens =
              sample_tokens(workload->prompt_tokens_mean, workload->prompt_tokens_sigma,
                            workload->prompt_tokens_max, token_rng[s]);
          request.gen_tokens =
              sample_tokens(workload->gen_tokens_mean, workload->gen_tokens_sigma,
                            workload->gen_tokens_max, token_rng[s]);
        }
        units[chosen].queue.push_back(request);
        std::uint64_t emission = 0;
        start_batch_if_possible(chosen, now, seq, &emission);
      }

      // Schedule the next arrival of this service.
      const double next = now + next_gap_ms(s);
      if (next <= cfg->horizon_ms) arm_arrival(s, next);
    }
  }

  /// The fixed-latency completion path: frees the process, accounts the
  /// batch against its service (skip warm-up), releases the slot. An LLM
  /// batch with no decode work takes exactly this path from its Prefill
  /// event — the degenerate byte-identity contract (DESIGN.md §4.7).
  void complete_batch(std::size_t ui, const SimEvent& event) {
    const double now = event.time_ms;
    UnitState& state = units[ui];
    const std::vector<Request>& requests = batches[event.slot].payload.requests;
    ++state.idle_processes;
    const auto slot_it =
        std::find(state.in_flight_slots.begin(), state.in_flight_slots.end(), event.slot);
    PARVA_CHECK(slot_it != state.in_flight_slots.end(),
                "completion without in-flight batch");
    *slot_it = state.in_flight_slots.back();
    state.in_flight_slots.pop_back();
    state.in_flight_requests -= requests.size();

    // Account the batch against its service (skip warm-up).
    if (!requests.empty() && requests.front().arrival_ms >= cfg->warmup_ms) {
      const int s_idx = unit_service[ui];
      PARVA_CHECK(s_idx >= 0, "unit without a service");
      const auto s = static_cast<std::size_t>(s_idx);
      ServiceOutcome& outcome = outcomes[s];
      PhaseStats* phase = phase_of(now, event.seq);  // by completion time
      ++outcome.batches;
      bool violated = false;
      for (const Request& request : requests) {
        const double latency = now - request.arrival_ms;
        outcome.request_latency_ms.add(latency);
        ++outcome.requests;
        ++phase->requests;
        if (latency > svc_slo_ms[s]) {
          violated = true;
          ++phase->violated_requests;
        }
      }
      if (violated) ++outcome.violated_batches;
      if (cfg->record_batch_events) {
        records.push_back({now, event.seq, 0, telemetry::EventKind::kBatchCompleted,
                           state.unit->gpu_index, svc_id[s],
                           static_cast<double>(requests.size())});
      }

      // Phase + timeline accounting, by completion time.
      ++phase->batches;
      if (violated) ++phase->violated_batches;
      if (TimelineBucket* bucket = bucket_of(now)) {
        ++bucket->batches;
        if (violated) ++bucket->violated_batches;
      }
    }
    batches.release(event.slot);
    std::uint64_t emission = 0;
    start_batch_if_possible(ui, now, event.seq, &emission);
  }

  /// Accounts one finished LLM request at its completing event (the batch
  /// warm-up gate follows the fixed path: the front request decides).
  void finish_llm_request(std::size_t ui, Batch& batch, const Request& request, double now,
                          std::uint64_t seq) {
    if (!batch.measured) return;
    const auto s = static_cast<std::size_t>(unit_service[ui]);
    ServiceOutcome& outcome = outcomes[s];
    PhaseStats* phase = phase_of(now, seq);
    const double latency = now - request.arrival_ms;
    outcome.request_latency_ms.add(latency);
    if (request.gen_tokens > 0) {
      outcome.decode_latency_ms.add(now - batch.prefill_done_ms);
      outcome.generated_tokens += static_cast<std::uint64_t>(request.gen_tokens);
    }
    ++outcome.requests;
    ++phase->requests;
    if (latency > svc_slo_ms[s]) {
      batch.violated = true;
      ++phase->violated_requests;
    }
  }

  /// Pushes the next Decode event for `slot` at the current live count.
  void schedule_decode(std::size_t ui, std::uint32_t slot, double now) {
    UnitState& state = units[ui];
    const Batch& batch = batches[slot].payload;
    const auto live = std::min<std::size_t>(static_cast<std::size_t>(batch.live),
                                            state.decode_step_ms.size() - 1);
    SimEvent event;
    event.time_ms = now + state.decode_step_ms[live];
    event.seq = completion_seq[ui].next();
    event.kind = EventKind::kLlmDecodeStep;
    event.unit_index = static_cast<int>(ui);
    event.slot = slot;
    event.generation = batches[slot].generation;
    events_of(ui).push(event);
  }

  /// Last decode token emitted: free the ledger, the process and the slot,
  /// and account the batch by its completion key like the fixed path.
  void finalize_llm_batch(std::size_t ui, const SimEvent& event, std::uint64_t* emission) {
    const double now = event.time_ms;
    UnitState& state = units[ui];
    Batch& batch = batches[event.slot].payload;
    release_ledger(ui, event.slot);
    ++state.idle_processes;
    const auto slot_it =
        std::find(state.in_flight_slots.begin(), state.in_flight_slots.end(), event.slot);
    PARVA_CHECK(slot_it != state.in_flight_slots.end(),
                "llm completion without in-flight batch");
    *slot_it = state.in_flight_slots.back();
    state.in_flight_slots.pop_back();
    state.in_flight_requests -= batch.requests.size();
    if (batch.measured) {
      const auto s = static_cast<std::size_t>(unit_service[ui]);
      ServiceOutcome& outcome = outcomes[s];
      PhaseStats* phase = phase_of(now, event.seq);
      ++outcome.batches;
      if (batch.violated) ++outcome.violated_batches;
      if (cfg->record_batch_events) {
        // An emission sub-key, not 0: this decode step may already have
        // emitted evictions, and the record must sort after them.
        PARVA_CHECK(*emission >> kSubEmissionBits == 0, "completion emission overflow");
        records.push_back({now, event.seq, unit_sub(ui) | (*emission)++,
                           telemetry::EventKind::kBatchCompleted, state.unit->gpu_index,
                           svc_id[s], static_cast<double>(batch.requests.size())});
      }
      ++phase->batches;
      if (batch.violated) ++phase->violated_batches;
      if (TimelineBucket* bucket = bucket_of(now)) {
        ++bucket->batches;
        if (batch.violated) ++bucket->violated_batches;
      }
    }
    batches.release(event.slot);
    start_batch_if_possible(ui, now, event.seq, emission);
  }

  /// Prompt pass finished. Requests with no generation complete here (time
  /// to first token IS their latency); the rest enter the decode chain.
  void on_prefill_done(std::size_t ui, const SimEvent& event) {
    const double now = event.time_ms;
    Batch& batch = batches[event.slot].payload;
    bool any_decode = false;
    for (const Request& request : batch.requests) {
      if (request.gen_tokens > 0) {
        any_decode = true;
        break;
      }
    }
    if (!any_decode) {
      // Zero-decode batch: the fixed-latency completion path, verbatim.
      release_ledger(ui, event.slot);
      complete_batch(ui, event);
      return;
    }
    batch.prefill_done_ms = now;
    if (batch.measured) {
      ServiceOutcome& outcome = outcomes[static_cast<std::size_t>(unit_service[ui])];
      for (const Request& request : batch.requests) {
        outcome.prefill_latency_ms.add(now - request.arrival_ms);
      }
    }
    batch.remaining.reserve(batch.requests.size());
    batch.live = 0;
    for (const Request& request : batch.requests) {
      batch.remaining.push_back(request.gen_tokens);
      if (request.gen_tokens > 0) ++batch.live;
    }
    for (const Request& request : batch.requests) {
      if (request.gen_tokens == 0) finish_llm_request(ui, batch, request, now, event.seq);
    }
    schedule_decode(ui, event.slot, now);
  }

  /// One decode chunk: every live request advances, the ledger grows (with
  /// evictions under memory pressure), finished requests complete.
  void on_decode_step(std::size_t ui, const SimEvent& event) {
    const double now = event.time_ms;
    UnitState& state = units[ui];
    Batch& batch = batches[event.slot].payload;
    std::uint64_t emission = 0;
    const int chunk = cfg->llm.decode_chunk_tokens;
    double grown_tokens = 0.0;
    for (const int left : batch.remaining) {
      // parva-audit: allow(R14): fixed vector index order per batch.
      if (left > 0) grown_tokens += static_cast<double>(std::min(left, chunk));
    }
    if (state.kv_per_token > 0.0 && cfg->llm.admission == LlmAdmissionPolicy::kEvict) {
      // Under kReject the growth was reserved at admission; under kEvict
      // the ledger grows live and reclaims from other residents — or, with
      // nothing left to take, sacrifices this batch itself.
      const double growth = state.kv_per_token * grown_tokens;
      if (growth > state.kv_capacity - state.kv_used) {
        evict_until_fits(ui, growth, event.slot, now, event.seq, &emission);
        if (growth > state.kv_capacity - state.kv_used) {
          evict_batch(ui, event.slot, now, event.seq, &emission);
          start_batch_if_possible(ui, now, event.seq, &emission);
          return;
        }
      }
      state.kv_used += growth;
      batch.kv_bytes += growth;
      state.kv_peak = std::max(state.kv_peak, state.kv_used);
    }
    batch.touched_stamp = ++state.next_stamp;
    for (std::size_t i = 0; i < batch.remaining.size(); ++i) {
      if (batch.remaining[i] <= 0) continue;
      batch.remaining[i] -= std::min(batch.remaining[i], chunk);
      if (batch.remaining[i] == 0) {
        --batch.live;
        finish_llm_request(ui, batch, batch.requests[i], now, event.seq);
      }
    }
    if (batch.live > 0) {
      schedule_decode(ui, event.slot, now);
      return;
    }
    finalize_llm_batch(ui, event, &emission);
  }

  void process_event(const SimEvent& event) {
    const double now = event.time_ms;
    ++events_processed;
    if (event.kind == EventKind::kUnitActivate) {
      // A repair replacement comes online with a full complement of idle
      // processes and an empty queue; the dispatcher starts routing to it
      // on the next arrival.
      const auto ui = static_cast<std::size_t>(event.unit_index);
      UnitState& state = units[ui];
      state.up = true;
      state.idle_processes = std::max(1, state.unit->procs);
      if (cfg->buffer_records) {
        records.push_back({now, event.seq, 0, telemetry::EventKind::kUnitActivated,
                           state.unit->gpu_index, state.unit->service_id, 0.0});
      }
      std::uint64_t emission = 0;
      start_batch_if_possible(ui, now, event.seq, &emission);
      return;
    }
    const auto ui = static_cast<std::size_t>(event.unit_index);
    if (!batches.current(event.slot, event.generation)) return;  // stale (GPU died
                                                                 // or batch evicted)
    if (event.kind == EventKind::kLlmPrefillDone) {
      on_prefill_done(ui, event);
      return;
    }
    if (event.kind == EventKind::kLlmDecodeStep) {
      on_decode_step(ui, event);
      return;
    }
    complete_batch(ui, event);
  }

  /// Processes every local event whose canonical key precedes
  /// (bound_ms, bound_seq), one service loop after another; events at or
  /// past the bound stay pending for a later window.
  void advance(double bound_ms, std::uint64_t bound_seq) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < loops.size(); ++s) {
      ServiceLoop& loop = loops[s];
      while (true) {
        // The loop's next event on (time, seq): its pending arrival, unless
        // the heap top precedes it (no arrival pending reads as kNever).
        double t = loop.arrival_ms;
        std::uint64_t q = loop.arrival_seq;
        const bool take_arrival =
            loop.events.empty() || t < loop.events.top().time_ms ||
            (t == loop.events.top().time_ms && q < loop.events.top().seq);
        if (!take_arrival) {
          t = loop.events.top().time_ms;
          q = loop.events.top().seq;
        }
        if (t > bound_ms || (t == bound_ms && q >= bound_seq)) break;
        if (take_arrival) {
          process_arrival(s);
        } else {
          process_event(loop.events.pop());
        }
      }
    }
    busy_ms += ms_since(t0);
  }

  /// XID-style device loss, delivered at a window barrier: every local unit
  /// on the GPU stops serving; its queue and in-flight batches are shed
  /// (the device reset destroys the processes mid-request). Releasing the
  /// slots bumps their generations, so the already-queued completions go
  /// stale. Shed records carry sub-keys built from the *global* unit index,
  /// so the merged stream interleaves shards exactly as a single engine's
  /// ascending unit-index loop would.
  void apply_failure(int gpu, double now, std::uint64_t seq) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t ui = 0; ui < units.size(); ++ui) {
      UnitState& state = units[ui];
      if (state.unit->gpu_index != gpu || !state.up) continue;
      state.up = false;
      // An orphan unit (no matching service) cannot hold requests, so the
      // shed loops below never dereference its -1 service index.
      const auto s = static_cast<std::size_t>(unit_service[ui]);
      const std::uint64_t unit_sub = (static_cast<std::uint64_t>(unit_global[ui]) + 1)
                                     << kSubEmissionBits;
      std::uint64_t emission = 0;
      for (const Request* request = state.queue.begin(); request != state.queue.end();
           ++request) {
        PARVA_CHECK(emission >> kSubEmissionBits == 0, "shed emission overflow");
        shed_one(s, request->arrival_ms, now, seq, unit_sub | emission++);
      }
      state.queue.clear();
      for (const std::uint32_t slot : state.in_flight_slots) {
        const Batch& batch = batches[slot].payload;
        for (std::size_t i = 0; i < batch.requests.size(); ++i) {
          // LLM batches mid-decode only shed the requests still generating
          // (finished ones already completed and were accounted).
          if (!batch.remaining.empty() && batch.remaining[i] <= 0) continue;
          PARVA_CHECK(emission >> kSubEmissionBits == 0, "shed emission overflow");
          shed_one(s, batch.requests[i].arrival_ms, now, seq, unit_sub | emission++);
        }
        batches.release(slot);
      }
      state.in_flight_slots.clear();
      state.in_flight_requests = 0;
      state.idle_processes = 0;
      // The device reset wipes the unit's KV ledger with it.
      state.kv_used = 0.0;
      state.resident.clear();
    }
    busy_ms += ms_since(t0);
  }
};

}  // namespace

double SimulationResult::overall_compliance() const {
  std::size_t total = 0;
  std::size_t violated = 0;
  for (const ServiceOutcome& outcome : services) {
    total += outcome.batches;
    violated += outcome.violated_batches;
  }
  return total == 0 ? 1.0
                    : 1.0 - static_cast<double>(violated) / static_cast<double>(total);
}

double SimulationResult::worst_compliance() const {
  double worst = 1.0;
  for (const ServiceOutcome& outcome : services) worst = std::min(worst, outcome.compliance());
  return worst;
}

SimulationResult ClusterSimulation::run(const SimulationOptions& options) const {
  PARVA_REQUIRE(std::isfinite(options.duration_ms) && options.duration_ms > 0.0,
                "duration must be finite and positive");
  PARVA_REQUIRE(std::isfinite(options.warmup_ms) && options.warmup_ms >= 0.0,
                "warm-up must be finite and non-negative");
  PARVA_REQUIRE(std::isfinite(options.timeline_bucket_ms) && options.timeline_bucket_ms >= 0.0,
                "timeline bucket must be finite and non-negative");
  PARVA_REQUIRE(options.shards >= 1, "shard count must be >= 1");
  // A NaN activation would never fire, and a NaN recovery boundary would
  // never open the post-recovery phase; past-horizon times stay legal.
  for (const UnitActivation& activation : options.activations) {
    PARVA_REQUIRE(std::isfinite(activation.at_ms) && activation.at_ms >= 0.0,
                  "activation time must be finite and non-negative");
  }
  PARVA_REQUIRE(std::isfinite(options.recovered_at_ms) && options.recovered_at_ms >= 0.0,
                "recovery time must be finite and non-negative");
  // Units, outcomes and streams all key on the service id, so two services
  // sharing one would silently merge into the first; a non-finite rate
  // would pace arrivals 0 ms apart, and a NaN SLO is never violated.
  const core::ServiceIdIndex svc_by_id(services_);
  const Status valid = core::validate(services_, svc_by_id);
  PARVA_REQUIRE(valid.ok(), valid.error().message());
  const double horizon_ms = options.warmup_ms + options.duration_ms;
  const std::size_t service_count = services_.size();
  const std::size_t unit_count = deployment_->units.size();
  const auto shard_count = static_cast<std::size_t>(options.shards);

  RunConfig cfg;
  cfg.warmup_ms = options.warmup_ms;
  cfg.horizon_ms = horizon_ms;
  cfg.timeline_bucket_ms = options.timeline_bucket_ms;
  cfg.arrivals = options.arrivals;
  PARVA_REQUIRE(options.llm.decode_chunk_tokens > 0, "decode chunk must be positive");
  cfg.llm = options.llm;
  if (options.timeline_bucket_ms > 0.0) {
    cfg.timeline_buckets = static_cast<std::size_t>(
        std::ceil(options.duration_ms / options.timeline_bucket_ms));
  }

  // Fault schedule with canonical keys: a failure's key is its position in
  // the *sorted plan* (not the horizon-filtered list), so the key of a
  // given failure never depends on the run length.
  struct FaultDelivery {
    double at_ms = 0.0;
    std::uint64_t seq = 0;
    int gpu = -1;
  };
  std::vector<FaultDelivery> faults;
  if (options.fault_plan != nullptr) {
    // A NaN time would break the sort's strict weak order.
    for (const gpu::GpuFailureEvent& failure : options.fault_plan->gpu_failures) {
      PARVA_REQUIRE(std::isfinite(failure.at_ms) && failure.at_ms >= 0.0,
                    "fault time must be finite and non-negative");
    }
    const auto sorted = options.fault_plan->sorted_gpu_failures();
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (sorted[i].at_ms > horizon_ms) continue;
      faults.push_back({sorted[i].at_ms, canonical_seq(kFaultStreamId, i),
                        static_cast<int>(sorted[i].gpu_index)});
    }
  }
  if (!faults.empty()) {
    cfg.first_failure_ms = faults.front().at_ms;
    cfg.first_failure_seq = faults.front().seq;
  }

  double recovered_at = options.recovered_at_ms;
  if (recovered_at <= 0.0) {
    for (const UnitActivation& activation : options.activations) {
      recovered_at = std::max(recovered_at, activation.at_ms);
    }
  }
  cfg.recovered_at_ms = recovered_at;

  // Telemetry handles, registered up front (a scrape sees every series even
  // for a run with no traffic) and flushed once, in canonical per-service
  // order, after the last window — which makes the scrape a pure function
  // of the merged result, byte-identical across shard counts.
  telemetry::Telemetry* tel = options.telemetry;
  cfg.buffer_records = tel != nullptr;
  cfg.record_batch_events = tel != nullptr && tel->options().request_events;
  std::vector<telemetry::Counter> tel_svc_requests(service_count);
  std::vector<telemetry::Counter> tel_svc_shed(service_count);
  telemetry::Counter tel_batches;
  telemetry::Counter tel_violated_batches;
  telemetry::Counter tel_events_processed;
  telemetry::HistogramMetric tel_latency;
  telemetry::Counter tel_llm_rejected;
  telemetry::Counter tel_llm_evicted;
  telemetry::Counter tel_llm_tokens;
  telemetry::HistogramMetric tel_prefill_latency;
  telemetry::HistogramMetric tel_decode_latency;
  telemetry::Gauge tel_kv_peak;
  if (tel != nullptr) {
    telemetry::MetricsRegistry& m = tel->metrics();
    tel_batches = m.counter("parva_sim_batches_total", "Batches served after warm-up");
    tel_violated_batches =
        m.counter("parva_sim_violated_batches_total", "Served batches that missed their SLO");
    tel_events_processed =
        m.counter("parva_sim_events_total", "Discrete events the engine processed");
    tel_latency = m.histogram("parva_sim_request_latency_ms",
                              telemetry::MetricsRegistry::default_latency_buckets_ms(),
                              "End-to-end request latency");
    tel_llm_rejected = m.counter("parva_sim_llm_rejected_total",
                                 "LLM requests refused admission by the KV ledger");
    tel_llm_evicted =
        m.counter("parva_sim_llm_evicted_total", "LLM requests evicted mid-decode");
    tel_llm_tokens = m.counter("parva_sim_llm_generated_tokens_total",
                               "Decode tokens emitted by completed requests");
    tel_prefill_latency = m.histogram("parva_sim_prefill_latency_ms",
                                      telemetry::MetricsRegistry::default_latency_buckets_ms(),
                                      "Arrival to first token (prefill done)");
    tel_decode_latency = m.histogram("parva_sim_decode_latency_ms",
                                     telemetry::MetricsRegistry::default_latency_buckets_ms(),
                                     "Prefill completion to last token");
    tel_kv_peak = m.gauge("parva_sim_kv_peak_ratio",
                          "Highest per-unit peak KV occupancy / capacity this run");
    for (std::size_t s = 0; s < service_count; ++s) {
      const std::string labels = "service=\"" + std::to_string(services_[s].id) + "\"";
      tel_svc_requests[s] = m.counter("parva_sim_requests_total",
                                      "Requests completed after warm-up", labels);
      tel_svc_shed[s] =
          m.counter("parva_sim_shed_requests_total", "Requests dropped by failures", labels);
    }
  }

  // Deterministic service partition; every unit follows its service.
  std::vector<double> rates(service_count, 0.0);
  for (std::size_t s = 0; s < service_count; ++s) rates[s] = services_[s].request_rate;
  const std::vector<int> assignment = partition_services(rates, options.shards);

  // service_id -> global service index.
  std::vector<int> unit_svc_global(unit_count, -1);
  for (std::size_t u = 0; u < unit_count; ++u) {
    if (const auto s = svc_by_id.find(deployment_->units[u].service_id)) {
      unit_svc_global[u] = static_cast<int>(*s);
    }
  }

  std::vector<Shard> shards(shard_count);
  std::vector<int> svc_shard_local(service_count, -1);
  for (std::size_t s = 0; s < service_count; ++s) {
    Shard& shard = shards[static_cast<std::size_t>(assignment[s])];
    svc_shard_local[s] = static_cast<int>(shard.svc_global.size());
    shard.svc_global.push_back(s);
    shard.svc_id.push_back(services_[s].id);
    shard.svc_slo_ms.push_back(services_[s].slo_latency_ms);
    shard.svc_rate.push_back(services_[s].request_rate);
    shard.paced_gap_ms.push_back(
        services_[s].request_rate > 0.0 ? 1.0 / (services_[s].request_rate / 1000.0) : 0.0);
    // Per-service stream as a pure function of (seed, service index): the
    // same stream no matter which shard hosts the service.
    shard.arrival_rng.push_back(Rng::stream(options.seed, RngStreamTag::kArrival, s));
    // LLM per-service state. The token and dispatch streams exist for every
    // service but are only ever drawn by LLM ones, so fixed-latency runs
    // stay byte-identical to the pre-LLM engine.
    const core::LlmWorkload* llm =
        services_[s].llm.has_value() ? &*services_[s].llm : nullptr;
    shard.svc_llm.push_back(llm);
    shard.token_rng.push_back(Rng::stream(options.seed, RngStreamTag::kToken, s));
    shard.dispatch_rng.push_back(Rng::stream(options.seed, RngStreamTag::kDispatch, s));
    shard.rr_cursor.push_back(0);
  }

  // Per-unit runtime state (orphan units — no matching service — ride on
  // shard 0; they serve nothing and only contribute a zero activity). The
  // per-fill-level latency scale and SM-work tables hoist the work-model
  // evaluations out of the batch hot path.
  std::vector<std::size_t> unit_shard_local(unit_count, 0);
  for (std::size_t u = 0; u < unit_count; ++u) {
    const int sg = unit_svc_global[u];
    Shard& shard = shards[sg >= 0 ? static_cast<std::size_t>(assignment[sg]) : 0];
    unit_shard_local[u] = shard.units.size();
    shard.unit_global.push_back(u);
    shard.unit_service.push_back(sg >= 0 ? svc_shard_local[sg] : -1);
    shard.jitter_rng.push_back(Rng::stream(options.seed, RngStreamTag::kJitter, u));
    shard.completion_seq.emplace_back(completion_stream_id(service_count, u));
    shard.units.emplace_back();
    UnitState& state = shard.units.back();
    state.unit = &deployment_->units[u];
    state.traits = perf_->catalog().find(deployment_->units[u].model);
    state.idle_processes = std::max(1, deployment_->units[u].procs);
    state.capacity = std::max(1e-9, deployment_->units[u].actual_throughput);
    const int batch = state.unit->batch;
    state.fill_scale.assign(static_cast<std::size_t>(batch) + 1, 1.0);
    state.sm_work.assign(static_cast<std::size_t>(batch) + 1, 0.0);
    if (state.traits != nullptr) {
      const double full =
          perfmodel::AnalyticalPerfModel::batch_work_ms(*state.traits, batch);
      for (int take = 1; take <= batch; ++take) {
        const double partial =
            perfmodel::AnalyticalPerfModel::batch_work_ms(*state.traits, take);
        if (take < batch) state.fill_scale[static_cast<std::size_t>(take)] = partial / full;
        state.sm_work[static_cast<std::size_t>(take)] = partial * gpu::kSmsPerGpc;
      }
    }
    // Generative-LLM unit state (DESIGN.md §4.7). Token laws and the KV
    // ledger key off the unit's model in the LLM catalog (unknown models
    // get generic defaults so synthetic tests can attach workloads to any
    // catalog row).
    if (sg >= 0 && services_[static_cast<std::size_t>(sg)].llm.has_value()) {
      const core::LlmWorkload& wl = *services_[static_cast<std::size_t>(sg)].llm;
      state.is_llm = true;
      state.llm_traits = perfmodel::LlmCatalog::builtin().find(state.unit->model);
      if (state.llm_traits == nullptr) state.llm_traits = &perfmodel::default_llm_traits();
      state.prefill_share =
          wl.gen_tokens_mean > 0.0 ? perfmodel::prefill_cost_share(*state.llm_traits) : 1.0;
      state.expected_prompt = wl.prompt_tokens_mean;
      state.kv_per_token = wl.kv_bytes_per_token;
      if (state.kv_per_token > 0.0) {
        // Ledger capacity: the MIG slice's memory (fractional MPS grants
        // pro-rate the full device) minus one weight replica per process.
        const int g = static_cast<int>(std::lround(state.unit->gpc_grant));
        const double mem_gib =
            gpu::is_valid_instance_size(g) &&
                    std::abs(state.unit->gpc_grant - static_cast<double>(g)) < 1e-9
                ? gpu::instance_memory_gib(g)
                : gpu::kGpuMemoryGiB * state.unit->gpc_grant /
                      static_cast<double>(gpu::kGpcSlots);
        const double weights_gib =
            state.llm_traits->weight_gib * static_cast<double>(std::max(1, state.unit->procs));
        state.kv_capacity = std::max(0.0, mem_gib - weights_gib) * 1024.0 * 1024.0 * 1024.0;
      }
      // Per-live-count decode step table: evaluated once here, read every
      // Decode event. Index 0 is never scheduled (live == 0 finalizes).
      state.decode_step_ms.assign(static_cast<std::size_t>(batch) + 1, 0.0);
      for (int live = 1; live <= batch; ++live) {
        state.decode_step_ms[static_cast<std::size_t>(live)] = perfmodel::decode_step_ms(
            *state.llm_traits, state.unit->gpc_grant, std::max(1, state.unit->procs), live,
            cfg.llm.decode_chunk_tokens);
      }
    }
  }

  for (Shard& shard : shards) {
    shard.cfg = &cfg;
    const std::size_t local_services = shard.svc_global.size();
    // CSR of each local service's units by counting sort on unit_service:
    // one pass to size the rows, one to fill them in ascending local-unit
    // order (the order the nested scan this replaced produced).
    shard.svc_unit_off.assign(local_services + 2, 0);
    for (std::size_t lu = 0; lu < shard.units.size(); ++lu) {
      const int ls = shard.unit_service[lu];
      if (ls >= 0) ++shard.svc_unit_off[static_cast<std::size_t>(ls) + 2];
    }
    for (std::size_t ls = 2; ls < shard.svc_unit_off.size(); ++ls) {
      shard.svc_unit_off[ls] += shard.svc_unit_off[ls - 1];
    }
    shard.svc_unit_flat.resize(shard.svc_unit_off[local_services + 1]);
    for (std::size_t lu = 0; lu < shard.units.size(); ++lu) {
      const int ls = shard.unit_service[lu];
      if (ls < 0) continue;  // orphan unit: serves no local service
      shard.svc_unit_flat[shard.svc_unit_off[static_cast<std::size_t>(ls) + 1]++] =
          static_cast<std::uint32_t>(lu);
    }
    shard.svc_unit_off.pop_back();

    shard.outcomes.resize(local_services);
    for (std::size_t ls = 0; ls < local_services; ++ls) {
      shard.outcomes[ls].service_id = shard.svc_id[ls];
      shard.outcomes[ls].offered_rate = shard.svc_rate[ls];
    }
    if (cfg.timeline_buckets > 0) {
      shard.timeline.resize(cfg.timeline_buckets);
      for (std::size_t b = 0; b < cfg.timeline_buckets; ++b) {
        shard.timeline[b].t_ms = static_cast<double>(b) * cfg.timeline_bucket_ms;
      }
    }

    // Seed the first arrival of every service (random phase; the phase
    // draw precedes any gap draw on the service's stream).
    shard.loops.resize(local_services + 1);
    for (std::size_t ls = 0; ls < local_services; ++ls) {
      shard.loops[ls].arrival_keys = SeqStream(arrival_stream_id(shard.svc_global[ls]));
      if (shard.svc_rate[ls] <= 0.0 ||
          shard.svc_unit_off[ls + 1] == shard.svc_unit_off[ls]) {
        continue;
      }
      const double phase = shard.arrival_rng[ls].next_double();
      shard.arm_arrival(ls, phase * shard.next_gap_ms(ls));
    }
  }

  // Repair activations: dormant at t=0, woken by an event in the unit's
  // loop keyed by the activation's position in options.activations.
  for (std::size_t i = 0; i < options.activations.size(); ++i) {
    const UnitActivation& activation = options.activations[i];
    PARVA_REQUIRE(activation.unit_index < unit_count, "activation index out of range");
    const int sg = unit_svc_global[activation.unit_index];
    Shard& shard = shards[sg >= 0 ? static_cast<std::size_t>(assignment[sg]) : 0];
    const std::size_t lu = unit_shard_local[activation.unit_index];
    shard.units[lu].up = false;  // dormant until its time comes
    if (activation.at_ms <= horizon_ms) {
      SimEvent event;
      event.time_ms = activation.at_ms;
      event.seq = canonical_seq(kActivationStreamId, i);
      event.kind = EventKind::kUnitActivate;
      event.unit_index = static_cast<int>(lu);
      shard.events_of(lu).push(event);
    }
  }

  // ----- Coordinator: conservative windows with barrier fault delivery.
  //
  // The only cross-shard coupling is a GPU failure (one device can host
  // units of services on different shards), and the fault schedule is
  // static — so the next undelivered failure's canonical key is an *exact*
  // conservative bound: every shard can safely process all events that
  // precede it.
  ThreadPool* pool = options.shard_pool;
  auto run_window = [&](double bound_ms, std::uint64_t bound_seq) {
    if (pool != nullptr && shard_count > 1) {
      pool->parallel_for(shard_count,
                         [&](std::size_t k) { shards[k].advance(bound_ms, bound_seq); });
    } else {
      for (Shard& shard : shards) shard.advance(bound_ms, bound_seq);
    }
  };

  SimulationResult result;
  std::vector<BufferedRecord> coordinator_records;
  for (const FaultDelivery& fault : faults) {
    run_window(fault.at_ms, fault.seq);
    if (result.failure_at_ms < 0.0) result.failure_at_ms = fault.at_ms;
    if (cfg.buffer_records) {
      coordinator_records.push_back({fault.at_ms, fault.seq, 0,
                                     telemetry::EventKind::kGpuFailure, fault.gpu, -1, 0.0});
    }
    for (Shard& shard : shards) shard.apply_failure(fault.gpu, fault.at_ms, fault.seq);
  }
  run_window(kNever, 0);  // drain to the horizon

  // ----- Merge: every aggregate is either per-service / per-unit (owned by
  // exactly one shard, copied into its global slot) or an order-free sum.
  std::size_t events_processed = faults.size();  // one per delivered failure
  result.shard_events.resize(shard_count);
  result.shard_busy_ms.resize(shard_count);
  result.services.resize(service_count);
  result.unit_activity.assign(unit_count, 0.0);
  result.unit_kv_peak.assign(unit_count, 0.0);
  std::vector<TimelineBucket> timeline(cfg.timeline_buckets);
  for (std::size_t b = 0; b < cfg.timeline_buckets; ++b) {
    timeline[b].t_ms = static_cast<double>(b) * cfg.timeline_bucket_ms;
  }
  auto add_phase = [](PhaseStats& into, const PhaseStats& from) {
    into.batches += from.batches;
    into.violated_batches += from.violated_batches;
    into.requests += from.requests;
    into.violated_requests += from.violated_requests;
    into.shed_requests += from.shed_requests;
  };
  for (std::size_t k = 0; k < shard_count; ++k) {
    Shard& shard = shards[k];
    events_processed += shard.events_processed;
    result.shard_events[k] = shard.events_processed;
    result.shard_busy_ms[k] = shard.busy_ms;
    for (std::size_t ls = 0; ls < shard.svc_global.size(); ++ls) {
      ServiceOutcome& outcome = shard.outcomes[ls];
      outcome.measured_rate =
          static_cast<double>(outcome.requests) / (options.duration_ms / 1000.0);
      result.requests_shed += outcome.shed_requests;
      result.requests_rejected += outcome.rejected_requests;
      result.requests_evicted += outcome.evicted_requests;
      result.generated_tokens += outcome.generated_tokens;
      result.services[shard.svc_global[ls]] = std::move(outcome);
    }
    for (std::size_t lu = 0; lu < shard.units.size(); ++lu) {
      const UnitState& state = shard.units[lu];
      const double granted_sm_ms =
          state.unit->gpc_grant * gpu::kSmsPerGpc * options.duration_ms;
      result.unit_activity[shard.unit_global[lu]] =
          granted_sm_ms <= 0.0 ? 0.0 : state.busy_sm_ms / granted_sm_ms;
      if (state.kv_capacity > 0.0) {
        result.unit_kv_peak[shard.unit_global[lu]] = state.kv_peak / state.kv_capacity;
      }
    }
    add_phase(result.pre_failure, shard.pre_failure);
    add_phase(result.degraded, shard.degraded);
    add_phase(result.post_recovery, shard.post_recovery);
    for (std::size_t b = 0; b < cfg.timeline_buckets; ++b) {
      timeline[b].batches += shard.timeline[b].batches;
      timeline[b].violated_batches += shard.timeline[b].violated_batches;
      timeline[b].shed_requests += shard.timeline[b].shed_requests;
    }
  }
  result.events_processed = events_processed;
  if (result.failure_at_ms >= 0.0 && recovered_at > 0.0) {
    result.recovered_at_ms = recovered_at;
  }
  result.timeline = std::move(timeline);
  result.internal_slack =
      core::internal_slack_from_activity(*deployment_, result.unit_activity);

  // ----- Telemetry flush, on the coordinator thread, in canonical order.
  if (tel != nullptr) {
    tel_events_processed.inc(static_cast<double>(events_processed));
    std::size_t total_batches = 0;
    std::size_t total_violated = 0;
    for (std::size_t s = 0; s < service_count; ++s) {
      const ServiceOutcome& outcome = result.services[s];
      total_batches += outcome.batches;
      total_violated += outcome.violated_batches;
      tel_svc_requests[s].inc(static_cast<double>(outcome.requests));
      tel_svc_shed[s].inc(static_cast<double>(outcome.shed_requests));
      // Histogram observations replay per service in completion order: a
      // canonical order, so the (order-sensitive) float sum is identical
      // for every shard count.
      tel_latency.observe(outcome.request_latency_ms.values());
      tel_prefill_latency.observe(outcome.prefill_latency_ms.values());
      tel_decode_latency.observe(outcome.decode_latency_ms.values());
    }
    tel_batches.inc(static_cast<double>(total_batches));
    tel_violated_batches.inc(static_cast<double>(total_violated));
    tel_llm_rejected.inc(static_cast<double>(result.requests_rejected));
    tel_llm_evicted.inc(static_cast<double>(result.requests_evicted));
    tel_llm_tokens.inc(static_cast<double>(result.generated_tokens));
    double kv_peak = 0.0;
    for (const double ratio : result.unit_kv_peak) kv_peak = std::max(kv_peak, ratio);
    tel_kv_peak.set(kv_peak);

    std::vector<std::vector<BufferedRecord>> buffers;
    buffers.reserve(shard_count + 1);
    for (Shard& shard : shards) buffers.push_back(std::move(shard.records));
    buffers.push_back(std::move(coordinator_records));
    for (const BufferedRecord& record : merge_records(std::move(buffers))) {
      tel->events().record(record.kind, record.t_ms, record.gpu, record.service_id,
                           record.value);
    }
  }
  return result;
}

}  // namespace parva::serving

// Building blocks of the sharded deterministic DES (DESIGN.md §4.5).
//
// The engine's determinism contract — equal outputs byte-for-byte no matter
// how many shards execute the simulation — rests on three primitives that
// live here so tests can attack each one in isolation:
//
//   1. Canonical sequence keys. Every event source owns a stream id (the
//      fault schedule, the activation schedule, one stream per service's
//      arrivals, one per unit's completions) and numbers its own events
//      with a local counter. The 64-bit key (stream_id << 40 | counter) is
//      a pure function of (source, occurrence index): it does not depend
//      on enqueue order, thread scheduling, or the shard partition. Events
//      are globally ordered by (time_ms, seq); the key makes that order a
//      property of the *workload*, not of the execution.
//
//   2. A deterministic shard partition. Services are assigned to shards by
//      longest-processing-time bin packing on offered rate (ties broken by
//      service index), so the partition is a pure function of
//      (services, shard count) and shard load is balanced.
//
//   3. A canonical merge. Per-shard buffers of telemetry records, each
//      sorted in its shard's processing order, merge into one stream
//      ordered by (time, seq, sub) — exactly the order a single-shard run
//      records them in. The sub-key serialises records emitted while
//      processing ONE event that fans out across shards (a GPU failure
//      shedding requests on several shards' units): it embeds the global
//      unit index, so the merged shed order equals the serial engine's
//      unit-index iteration order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "telemetry/event_log.hpp"

namespace parva::serving {

// ---------------------------------------------------------------------------
// Canonical sequence keys.
// ---------------------------------------------------------------------------

/// Bits of the per-stream occurrence counter inside a canonical key. 2^40
/// events per stream is ~1.1e12 — far above any stream a simulation can
/// produce (a 10k req/s service over a week of simulated time issues ~6e9).
inline constexpr unsigned kSeqCounterBits = 40;
inline constexpr std::uint64_t kSeqCounterMask = (std::uint64_t{1} << kSeqCounterBits) - 1;

/// Stream-id layout. Faults and activations come first so that at an exact
/// timestamp tie a device loss precedes the arrivals and completions it
/// sheds — matching the order the pre-shard engine produced by pushing the
/// static schedules at t=0 with the lowest enqueue counters.
inline constexpr std::uint64_t kFaultStreamId = 0;
inline constexpr std::uint64_t kActivationStreamId = 1;

inline std::uint64_t arrival_stream_id(std::size_t service_index) {
  return 2 + static_cast<std::uint64_t>(service_index);
}
inline std::uint64_t completion_stream_id(std::size_t service_count,
                                          std::size_t unit_index) {
  return 2 + static_cast<std::uint64_t>(service_count) +
         static_cast<std::uint64_t>(unit_index);
}

/// The canonical key of occurrence `counter` of stream `stream_id`.
inline std::uint64_t canonical_seq(std::uint64_t stream_id, std::uint64_t counter) {
  PARVA_CHECK(counter <= kSeqCounterMask, "stream counter overflow");
  PARVA_CHECK(stream_id <= (~std::uint64_t{0} >> kSeqCounterBits),
              "stream id overflow");
  return (stream_id << kSeqCounterBits) | counter;
}

/// Issues consecutive canonical keys for one event source.
class SeqStream {
 public:
  SeqStream() = default;
  explicit SeqStream(std::uint64_t stream_id) : stream_id_(stream_id) {}

  std::uint64_t next() { return canonical_seq(stream_id_, counter_++); }
  std::uint64_t issued() const { return counter_; }

 private:
  std::uint64_t stream_id_ = 0;
  std::uint64_t counter_ = 0;
};

// ---------------------------------------------------------------------------
// Deterministic shard partition.
// ---------------------------------------------------------------------------

/// Assigns each service to a shard: longest-processing-time bin packing on
/// `rates` (offered request rate, the dominant event-volume driver). Ties —
/// equal rates, equally loaded shards — break toward the lower index, so
/// the result is a pure function of the inputs. Every service of a shard
/// carries its units with it; nothing else couples shards (dispatch is
/// intra-service, completions are intra-unit).
std::vector<int> partition_services(const std::vector<double>& rates, int shards);

// ---------------------------------------------------------------------------
// Canonical merge of per-shard record buffers.
// ---------------------------------------------------------------------------

/// One telemetry record buffered during sharded execution, keyed for the
/// canonical merge: `seq` is the canonical key of the event being processed
/// when the record was emitted, `sub` serialises multiple records emitted
/// under that one key (0 for the single-record common case; GPU-failure
/// shed records use (global unit index + 1) << 20 | per-unit emission, so
/// shards shedding under the same failure key interleave exactly as the
/// serial engine's unit-index loop does).
struct BufferedRecord {
  double t_ms = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t sub = 0;
  telemetry::EventKind kind = telemetry::EventKind::kRequestShed;
  int gpu = -1;
  int service_id = -1;
  double value = 0.0;
};

/// Strict-weak order on the canonical record key (time, seq, sub). Keys are
/// unique by construction, so the merged order is total.
inline bool record_before(const BufferedRecord& a, const BufferedRecord& b) {
  if (a.t_ms != b.t_ms) return a.t_ms < b.t_ms;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.sub < b.sub;
}

/// Merges per-shard buffers (each sorted in shard processing order, which
/// is canonical-key order) into one canonically ordered stream. The result
/// is invariant under how records were distributed across the input
/// buffers — the property tests/serving/shard_merge_property_test.cpp
/// fuzzes.
std::vector<BufferedRecord> merge_records(std::vector<std::vector<BufferedRecord>> buffers);

// ---------------------------------------------------------------------------
// Per-service arrival streams.
// ---------------------------------------------------------------------------

/// The next pending arrival of one service: each service has at most one
/// outstanding arrival, so a (time, key) slot per service replaces heap
/// traffic entirely. Keys come from the service's own canonical stream, so
/// the slot state of a service is identical whether the stream lives in a
/// global engine or a shard — the regression contract of
/// tests/serving/seq_stability_test.cpp.
///
/// Slot selection is a loser tree (DESIGN.md §4.6): a complete binary
/// tournament over bit_ceil(size) leaves in heap layout, where internal
/// node i keeps the LOSER of the match played there and the champion — the
/// slot with the lexicographically least (time, seq) — is kept apart.
/// Spare leaves past size() are slots that stay retired (time = ∞), and a
/// retired champion means nothing is pending. The DES only ever changes
/// the champion's slot (it processes the earliest arrival, then retires or
/// re-arms that service), so earliest() replays the champion's
/// leaf-to-root path once, one comparison per level, however often the
/// champion changed since the last call. Changing any other slot marks
/// the tree stale, and earliest() rebuilds it bottom-up in O(size).
/// Selection is byte-identical to a flat argmin: (time, seq) pairs are
/// unique across pending slots, so the lexicographic min IS the
/// min-time-then-min-seq slot (tests/serving/arrival_scheduler_test.cpp
/// checks it against that oracle, equal-time ties included).
class ArrivalStreams {
 public:
  /// An empty set of streams (a shard before its services are bound).
  ArrivalStreams() : ArrivalStreams(std::vector<std::size_t>{}) {}

  /// `service_indices[i]` is the global index of local service i (global
  /// indices feed stream ids; local indices feed slot selection).
  explicit ArrivalStreams(const std::vector<std::size_t>& service_indices);

  /// Arms local service `s` to arrive at `time_ms`, drawing the next
  /// canonical key of its stream.
  void arm(std::size_t s, double time_ms);

  /// Retires the pending arrival of local service `s` (after processing,
  /// or when it fell past the horizon).
  void retire(std::size_t s);

  std::size_t size() const { return streams_.size(); }
  double time(std::size_t s) const { return time_[s]; }
  std::uint64_t seq(std::size_t s) const { return seq_[s]; }
  /// Canonical keys this service's stream has issued so far.
  std::uint64_t issued(std::size_t s) const { return streams_[s].issued(); }

  /// Local index of the earliest pending arrival by (time, seq), or size()
  /// when none is pending.
  std::size_t earliest();

 private:
  /// Replays the champion's matches on its leaf-to-root path.
  void replay_matches();
  /// Plays every match below `node` afresh; returns the subtree's winner.
  std::uint32_t play_subtree(std::size_t node);
  /// True when slot a wins a match against slot b: strictly less (time, seq).
  bool beats(std::uint32_t a, std::uint32_t b) const {
    return time_[a] < time_[b] || (time_[a] == time_[b] && seq_[a] < seq_[b]);
  }
  /// Arming or retiring slot s; only the champion may change cheaply.
  void touch(std::size_t s) { stale_ = stale_ || s != champion_; }

  /// Per leaf, so spare leaves are ordinary never-armed slots.
  std::vector<double> time_;
  std::vector<std::uint64_t> seq_;
  std::vector<SeqStream> streams_;
  /// loser_[i] (1 <= i < leaf_base_) is the loser of node i's match; node
  /// i plays the winners of nodes 2i and 2i+1, and leaf s is node
  /// leaf_base_ + s.
  std::vector<std::uint32_t> loser_;
  std::size_t leaf_base_ = 1;
  std::uint32_t champion_ = 0;
  bool stale_ = true;
};

}  // namespace parva::serving

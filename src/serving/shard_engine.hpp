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
//   3. A canonical merge. Per-shard buffers of telemetry records merge into
//      one stream by a stable sort on (time, seq), the global event order.
//      Every record an event emits sits in one buffer, in emission order:
//      a shard writes the records of the events it processes, and the
//      coordinator writes a GPU failure's (the failure, then the sheds of
//      its units in ascending unit order). So the records sharing one key
//      keep their emission order, and the merged stream is the same for
//      every shard count.
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
/// canonical merge by the event being processed when it was emitted: `t_ms`
/// and `seq` are that event's time and canonical key.
struct BufferedRecord {
  double t_ms = 0.0;
  std::uint64_t seq = 0;
  telemetry::EventKind kind = telemetry::EventKind::kRequestShed;
  int gpu = -1;
  int service_id = -1;
  double value = 0.0;
};

/// Strict-weak order on the canonical event key (time, seq). Keys are
/// unique per event, so only the records of one event compare equal.
inline bool record_before(const BufferedRecord& a, const BufferedRecord& b) {
  if (a.t_ms != b.t_ms) return a.t_ms < b.t_ms;
  return a.seq < b.seq;
}

/// Merges per-shard buffers into one canonically ordered stream: a stable
/// sort on (time, seq) of the buffers laid end to end. Precondition: all
/// records of one event sit in one buffer, in emission order. Under it,
/// neither the order of events within a buffer (a shard emits one service
/// loop's window at a time) nor how events were spread across buffers, nor
/// the order of the buffers, shows in the result — the property
/// tests/serving/shard_merge_property_test.cpp fuzzes.
std::vector<BufferedRecord> merge_records(std::vector<std::vector<BufferedRecord>> buffers);

}  // namespace parva::serving

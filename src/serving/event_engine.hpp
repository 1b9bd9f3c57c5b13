// The discrete-event engine underneath ClusterSimulation: a flat binary
// min-heap of plain-value events ordered by a canonical (time, seq) key
// (one per service loop), and a slot pool recycling in-flight batch
// storage.
//
// Determinism by construction: the heap orders by (time, seq) where `seq`
// is a *canonical stream key* (see shard_engine.hpp) assigned by the event
// source, not by enqueue order. Every source — a service's arrival stream,
// a unit's completion stream, the fault schedule, the activation schedule —
// owns a stream id and numbers its own events, so the key of an event is a
// pure function of (source, occurrence index). That makes the pop order of
// equal-timestamp events fully determined AND invariant under any split of
// the sources across heaps: each service loop pops its own events in the
// order one global heap would (tests/serving/parallel_engine_test.cpp,
// shard_merge_property_test.cpp).
//
// Pooling: completions used to live in per-unit std::map<id, batch> tables
// plus a std::set of ids dropped by device losses — a rb-tree allocation
// per batch and an O(log n) lookup per completion on the hottest path. The
// BatchPool replaces both: slots are recycled vectors (capacity survives
// reuse, so steady state allocates nothing), completions address their slot
// directly, and a per-slot generation counter invalidates the completions
// of batches a device loss destroyed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace parva::serving {

/// Event kinds, ordered by time in the event queue. A service's arrivals
/// live in its loop outside the heap (see cluster_sim.cpp), and device
/// losses are delivered at window barriers, so only completions, LLM
/// phase steps and activations are heap events.
enum class EventKind : std::uint8_t {
  kBatchComplete,  ///< fixed-latency batch finished
  kUnitActivate,
  // Generative-LLM phase structure (DESIGN.md §4.7). Both draw their
  // sequence numbers from the owning unit's completion stream, so keys
  // are a pure function of the unit's trajectory and shard-invariant.
  kLlmPrefillDone,  ///< prompt pass finished; decode chain starts
  kLlmDecodeStep,   ///< each live request advanced one decode chunk
};

struct SimEvent {
  double time_ms = 0.0;
  std::uint64_t seq = 0;       ///< canonical stream key: the deterministic tie-break
  EventKind kind = EventKind::kBatchComplete;
  int unit_index = -1;         ///< the event's unit, by position in its service loop
  std::uint32_t slot = 0;      ///< completions: batch-pool slot
  std::uint32_t generation = 0;///< completions: slot generation at issue
};

/// Flat binary min-heap on (time_ms, seq). Events are plain values in one
/// contiguous vector; push/pop never allocate once the backing storage has
/// grown to the loop's high-water mark (a few events per unit, so it
/// starts empty). The caller assigns `seq` (canonical stream keys); the
/// heap only orders.
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Enqueues an event carrying its pre-assigned canonical key.
  void push(const SimEvent& event) {
    heap_.push_back(event);
    sift_up(heap_.size() - 1);
  }

  const SimEvent& top() const { return heap_.front(); }

  SimEvent pop() {
    SimEvent out = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

 private:
  static bool before(const SimEvent& a, const SimEvent& b) {
    if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      std::size_t least = left;
      if (right < n && before(heap_[right], heap_[left])) least = right;
      if (!before(heap_[least], heap_[i])) break;
      std::swap(heap_[i], heap_[least]);
      i = least;
    }
  }

  std::vector<SimEvent> heap_;
};

/// Recycled storage for batches in flight. `Payload` is the per-batch
/// content (a vector of requests); its heap capacity survives release, so a
/// simulation at steady state stops allocating entirely.
template <typename Payload>
class SlotPool {
 public:
  struct Slot {
    Payload payload;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// Hands out a slot (recycling released ones). The payload arrives
  /// cleared but with its previous capacity.
  std::uint32_t acquire() {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[index].live = true;
    return index;
  }

  /// Invalidates the slot: bumps the generation (pending references go
  /// stale), clears the payload keeping capacity, and recycles the index.
  void release(std::uint32_t index) {
    Slot& slot = slots_[index];
    slot.live = false;
    ++slot.generation;
    slot.payload.clear();
    free_.push_back(index);
  }

  Slot& operator[](std::uint32_t index) { return slots_[index]; }
  const Slot& operator[](std::uint32_t index) const { return slots_[index]; }

  /// True when `generation` still addresses the live batch it was issued
  /// for (false after the slot died with its GPU or was recycled).
  bool current(std::uint32_t index, std::uint32_t generation) const {
    const Slot& slot = slots_[index];
    return slot.live && slot.generation == generation;
  }

 private:
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace parva::serving

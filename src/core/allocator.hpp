// The GPU Segment Allocator (paper Algorithm 2).
//
// Stage 1 — Segment Relocation: enqueue every service's segments into
// per-size queues, then ALLOCATION drains the queues largest-size-first,
// placing each segment on the first GPU (front to back) with a legal free
// slot under the Section III-E1 preference rules. ALLOCATION only adds
// segments, so each queue's first-fit search resumes where the previous
// segment of that size landed: linear in GPUs per size, not per segment.
//
// Stage 2 — Allocation Optimization: walk GPUs from the back; on each GPU
// whose allocated GPC count is at or below the threshold (default 4,
// heuristically optimal per the paper), free its segments, re-express the
// freed throughput as size-1/2 segments from the service's optimal-triplet
// array, and re-run ALLOCATION so the small segments sink into earlier
// gaps. Surplus small-segment capacity carries to the next freed GPU
// through the freed_rate ledger. The pass costs what it can change, not
// the size of the fleet:
//   * One first-fit cursor per segment size lasts for the whole pass: no
//     GPU before cursor[k] fits size k. Placements only fill slots, so
//     that holds from one ALLOCATION call to the next; the one removal is
//     the strip of the visited GPU, after which each cursor beyond it is
//     pulled back to it for every size it now fits.
//   * The pass edits the map in place and keeps an undo journal: each GPU
//     as it was just before its first segment left, and the GPU of each
//     placed small segment. A candidate that nothing leaves (its services
//     have no small triplet) is not journaled; what lands on it is popped
//     like any placement. When the result would use more GPUs than the
//     input, the journal is replayed backwards and the input map is
//     returned. That does happen: a lone 4g segment whose only small
//     triplet is a 1g at a tenth of its rate re-expresses as ten 1g
//     segments, which need a second GPU.
//   * Each freed segment finds its service by a front-to-back scan for the
//     first 2*bit_width(n) lookups of a pass, then through one id table
//     (ServiceIdIndex, built once): never much dearer than the cheaper of
//     the two. Either way a repeated id resolves to its first service.
#pragma once

#include <array>
#include <map>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/plan.hpp"
#include "core/service.hpp"

namespace parva::core {

struct AllocatorOptions {
  /// GPUs with at most this many allocated GPCs are treated as fragmented
  /// and dissolved by Allocation Optimization (paper fixes 4).
  int optimization_threshold_gpcs = 4;
  /// Disables stage 2, reproducing ParvaGPU-unoptimized.
  bool optimize = true;
};

class SegmentAllocator {
 public:
  explicit SegmentAllocator(AllocatorOptions options = {}) : options_(options) {}

  const AllocatorOptions& options() const { return options_; }

  /// Full Algorithm 2: relocation followed by optimization.
  [[nodiscard]] Result<DeploymentPlan> allocate(std::span<const ConfiguredService> services) const;

  /// Stage 1 only (exposed for tests and the unoptimized variant).
  [[nodiscard]] Result<DeploymentPlan> segment_relocation(std::span<const ConfiguredService> services) const;

  /// Stage 2 only, applied to an existing map; returns it compacted.
  DeploymentPlan allocation_optimization(DeploymentPlan plan,
                                         std::span<const ConfiguredService> services) const;

  /// Incremental placement used by the reconfiguration path (Section
  /// III-F): places one service's segments into an existing map without
  /// disturbing other services.
  [[nodiscard]] Status place_service(DeploymentPlan& plan, const ConfiguredService& service) const;

  /// SMALLSEGMENTS: size-1/2 segments from the service's triplet array
  /// covering `rate`; empty when the service has no small triplet.
  static std::vector<Triplet> small_segments(const ConfiguredService& service, double rate);

 private:
  /// Size-indexed segment queues (key = gpcs, drained in descending order).
  using SegmentQueues = std::map<int, std::vector<Segment>, std::greater<int>>;

  /// First-fit cursor per segment size, indexed by GPC count: no GPU
  /// before `cursors[k]` fits a size-k segment. All zero is always valid.
  using FitCursors = std::array<std::size_t, gpu::kGpcSlots + 1>;

  static void enqueue(SegmentQueues& queues, int service_id, const Triplet& triplet);
  static void enqueue_service(SegmentQueues& queues, const ConfiguredService& service);
  /// The ALLOCATION function: drains queues into the plan, each size's
  /// first-fit search starting at (and advancing) its cursor, and appends
  /// the GPU index of every placed segment to `placed_on` when given.
  static void run_allocation(SegmentQueues& queues, DeploymentPlan& plan, FitCursors& cursors,
                             std::vector<std::size_t>* placed_on = nullptr);

  AllocatorOptions options_;
};

}  // namespace parva::core

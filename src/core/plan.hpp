// The deployment map the GPU Segment Allocator produces: per-GPU segment
// placements validated against the MIG geometry (Table III's GPU object).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "gpu/mig_geometry.hpp"

namespace parva::core {

/// A segment pinned to a concrete placement on one GPU.
struct PlacedSegment {
  int service_id = -1;
  Triplet triplet;
  gpu::Placement placement;
};

/// One GPU in the deployment map.
class GpuPlan {
 public:
  explicit GpuPlan(int id) : id_(id) {}

  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  std::uint8_t occupied_mask() const { return occupied_mask_; }
  const std::vector<PlacedSegment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }

  /// GPCs allocated to segments (Table III num_gpcs).
  int allocated_gpcs() const;

  /// Slots this GPU has blocked (allocated plus geometry-unusable).
  int occupied_slots() const;

  bool can_fit(int gpcs) const {
    return gpu::find_start_slot(occupied_mask_, gpcs).has_value();
  }

  /// Places a segment at the first preferred legal slot; false if none.
  bool try_place(int service_id, const Triplet& triplet);

  /// Places a segment at an explicit start slot; false when the placement
  /// is illegal or overlaps. Lets baselines use their own slot orders.
  bool try_place_at(int service_id, const Triplet& triplet, int start_slot);

  /// Removes the segment at `index`, releasing its slots.
  PlacedSegment remove_segment(std::size_t index);

  std::string to_string() const;

 private:
  int id_;
  std::uint8_t occupied_mask_ = 0;
  std::vector<PlacedSegment> segments_;
};

/// The full deployment map across GPUs.
class DeploymentPlan {
 public:
  std::size_t gpu_count() const { return gpus_.size(); }
  const std::vector<GpuPlan>& gpus() const { return gpus_; }
  std::vector<GpuPlan>& gpus() { return gpus_; }

  GpuPlan& gpu(std::size_t index) { return gpus_.at(index); }
  const GpuPlan& gpu(std::size_t index) const { return gpus_.at(index); }

  /// Places a segment on the first GPU (front to back, starting at index
  /// `from`) that fits it, appending a new GPU when none does. Returns the
  /// GPU index used. A caller passing `from > 0` must know that no GPU
  /// before `from` fits the segment; the result then equals a scan from 0.
  std::size_t place_first_fit(int service_id, const Triplet& triplet, std::size_t from = 0);

  /// Drops empty GPUs and renumbers the rest contiguously.
  void compact();

  /// Total GPCs allocated across all GPUs.
  int total_allocated_gpcs() const;
  /// GPUs holding at least one segment.
  std::size_t gpus_in_use() const;

  /// All placed segments (gpu index, segment).
  std::vector<std::pair<std::size_t, const PlacedSegment*>> all_segments() const;

  std::string to_string() const;

 private:
  std::vector<GpuPlan> gpus_;
};

}  // namespace parva::core

#include "core/plan.hpp"

#include "common/error.hpp"

namespace parva::core {

int GpuPlan::allocated_gpcs() const {
  int total = 0;
  for (const auto& segment : segments_) total += segment.triplet.gpcs;
  return total;
}

int GpuPlan::occupied_slots() const {
  int count = 0;
  for (int slot = 0; slot < gpu::kGpcSlots; ++slot) {
    if ((occupied_mask_ >> slot) & 1u) ++count;
  }
  return count;
}

bool GpuPlan::try_place(int service_id, const Triplet& triplet) {
  const auto start = gpu::find_start_slot(occupied_mask_, triplet.gpcs);
  if (!start.has_value()) return false;
  PlacedSegment placed;
  placed.service_id = service_id;
  placed.triplet = triplet;
  placed.placement = gpu::Placement{triplet.gpcs, *start};
  occupied_mask_ |= placed.placement.slot_mask();
  segments_.push_back(placed);
  return true;
}

bool GpuPlan::try_place_at(int service_id, const Triplet& triplet, int start_slot) {
  const gpu::Placement placement{triplet.gpcs, start_slot};
  if (!gpu::is_legal_placement(placement)) return false;
  if ((occupied_mask_ & placement.slot_mask()) != 0) return false;
  PlacedSegment placed;
  placed.service_id = service_id;
  placed.triplet = triplet;
  placed.placement = placement;
  occupied_mask_ |= placement.slot_mask();
  segments_.push_back(placed);
  return true;
}

PlacedSegment GpuPlan::remove_segment(std::size_t index) {
  PARVA_REQUIRE(index < segments_.size(), "segment index out of range");
  PlacedSegment removed = segments_[index];
  occupied_mask_ &= static_cast<std::uint8_t>(~removed.placement.slot_mask());
  segments_.erase(segments_.begin() + static_cast<std::ptrdiff_t>(index));
  return removed;
}

std::string GpuPlan::to_string() const {
  std::string out = "GPU" + std::to_string(id_) + "{";
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i != 0) out += ' ';
    out += 's';
    out += std::to_string(segments_[i].service_id);
    out += ':';
    out += std::to_string(segments_[i].triplet.gpcs);
    out += '@';
    out += std::to_string(segments_[i].placement.start_slot);
  }
  out += "}";
  return out;
}

std::size_t DeploymentPlan::place_first_fit(int service_id, const Triplet& triplet,
                                            std::size_t from) {
  PARVA_REQUIRE(from <= gpus_.size(), "first-fit start index out of range");
  for (std::size_t i = from; i < gpus_.size(); ++i) {
    if (gpus_[i].try_place(service_id, triplet)) return i;
  }
  gpus_.emplace_back(static_cast<int>(gpus_.size()));
  const bool placed = gpus_.back().try_place(service_id, triplet);
  PARVA_CHECK(placed, "fresh GPU must fit any single segment");
  return gpus_.size() - 1;
}

void DeploymentPlan::compact() {
  std::erase_if(gpus_, [](const GpuPlan& gpu) { return gpu.empty(); });
  for (std::size_t i = 0; i < gpus_.size(); ++i) gpus_[i].set_id(static_cast<int>(i));
}

int DeploymentPlan::total_allocated_gpcs() const {
  int total = 0;
  for (const auto& gpu : gpus_) total += gpu.allocated_gpcs();
  return total;
}

std::size_t DeploymentPlan::gpus_in_use() const {
  std::size_t used = 0;
  for (const auto& gpu : gpus_) {
    if (!gpu.empty()) ++used;
  }
  return used;
}

std::vector<std::pair<std::size_t, const PlacedSegment*>> DeploymentPlan::all_segments() const {
  std::vector<std::pair<std::size_t, const PlacedSegment*>> out;
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    for (const auto& segment : gpus_[i].segments()) out.emplace_back(i, &segment);
  }
  return out;
}

std::string DeploymentPlan::to_string() const {
  std::string out;
  for (const auto& gpu : gpus_) {
    if (!out.empty()) out += ' ';
    out += gpu.to_string();
  }
  return out.empty() ? "empty-plan" : out;
}

}  // namespace parva::core

#include "core/allocator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

namespace parva::core {
namespace {

/// Service lookup by id for one Allocation Optimization pass. The first
/// 2*bit_width(n) lookups scan the list front to back; the next one builds
/// the id table (ServiceIdIndex) once and every later one reads it. A pass
/// that looks up few segments (an S5 update, 1-8 candidate GPUs) never pays
/// for the build, and one that looks up many never pays O(n) per lookup;
/// either way a repeated id resolves to its first position.
class ServiceLookup {
 public:
  explicit ServiceLookup(std::span<const ConfiguredService> services)
      : services_(services), scans_left_(2 * std::bit_width(services.size())) {}

  const ConfiguredService* find(int id) {
    if (scans_left_ > 0) {
      --scans_left_;
      const auto it = std::find_if(services_.begin(), services_.end(),
                                   [id](const ConfiguredService& s) { return s.spec.id == id; });
      return it == services_.end() ? nullptr : &*it;
    }
    if (!index_.has_value()) index_ = ServiceIdIndex::for_configured(services_);
    const auto position = index_->find(id);
    return position.has_value() ? &services_[*position] : nullptr;
  }

 private:
  std::span<const ConfiguredService> services_;
  std::size_t scans_left_;
  std::optional<ServiceIdIndex> index_;
};

}  // namespace

void SegmentAllocator::enqueue(SegmentQueues& queues, int service_id, const Triplet& triplet) {
  queues[triplet.gpcs].push_back(Segment{service_id, triplet});
}

void SegmentAllocator::enqueue_service(SegmentQueues& queues, const ConfiguredService& service) {
  for (int i = 0; i < service.num_opt_seg; ++i) {
    enqueue(queues, service.spec.id, service.opt_seg);
  }
  if (service.last_seg.has_value()) {
    enqueue(queues, service.spec.id, *service.last_seg);
  }
}

void SegmentAllocator::run_allocation(SegmentQueues& queues, DeploymentPlan& plan,
                                      FitCursors& cursors, std::vector<std::size_t>* placed_on) {
  // Largest-size queues first (std::greater key order), first-fit front to
  // back across GPUs; find_start_slot applies the slot-preference rules.
  // ALLOCATION only fills slots, and whether a size fits is monotone in the
  // occupied mask, so a GPU that cannot take size k now never can later.
  // Each queue's search therefore resumes at its size's cursor, which ends
  // on the GPU where the previous segment of that size landed: the same
  // GPU a scan from 0 would pick, at O(sizes x GPUs + segments) instead of
  // O(segments x GPUs).
  for (const auto& [gpcs, queue] : queues) {
    std::size_t& cursor = cursors.at(static_cast<std::size_t>(gpcs));
    for (const Segment& segment : queue) {
      cursor = plan.place_first_fit(segment.service_id, segment.triplet, cursor);
      if (placed_on != nullptr) placed_on->push_back(cursor);
    }
  }
  queues.clear();
}

Result<DeploymentPlan> SegmentAllocator::segment_relocation(
    std::span<const ConfiguredService> services) const {
  SegmentQueues queues;
  for (const ConfiguredService& service : services) {
    if (service.num_opt_seg > 0 && !service.opt_seg.valid()) {
      return Error(ErrorCode::kInternal,
                   "service " + std::to_string(service.spec.id) + " lacks an optimal segment");
    }
    enqueue_service(queues, service);
  }
  DeploymentPlan plan;
  FitCursors cursors{};
  run_allocation(queues, plan, cursors);
  return plan;
}

std::vector<Triplet> SegmentAllocator::small_segments(const ConfiguredService& service,
                                                      double rate) {
  const auto& small1 = service.opt_tri_array[0];  // 1-GPC triplet
  const auto& small2 = service.opt_tri_array[1];  // 2-GPC triplet
  std::vector<Triplet> out;
  if (rate <= 0.0) return out;
  if (!small1.has_value() && !small2.has_value()) return out;

  // Bulk phase: take the GPC-efficient small triplet while the remaining
  // rate exceeds what a single final segment could cover.
  const Triplet* bulk = nullptr;
  if (small1.has_value() && small2.has_value()) {
    bulk = small1->throughput_per_gpc() >= small2->throughput_per_gpc() ? &*small1 : &*small2;
  } else {
    bulk = small1.has_value() ? &*small1 : &*small2;
  }
  const double largest_tp = std::max(small1.has_value() ? small1->throughput : 0.0,
                                     small2.has_value() ? small2->throughput : 0.0);
  double remaining = rate;
  while (remaining > largest_tp) {
    out.push_back(*bulk);
    remaining -= bulk->throughput;
  }
  // Final phase: smallest small segment covering the remainder.
  if (remaining > 0.0) {
    if (small1.has_value() && small1->throughput >= remaining) {
      out.push_back(*small1);
    } else if (small2.has_value() && small2->throughput >= remaining) {
      out.push_back(*small2);
    } else if (small1.has_value() || small2.has_value()) {
      // Remaining exceeds both; the loop above guarantees this cannot
      // happen, but cover it defensively with the larger option.
      out.push_back(largest_tp == (small1.has_value() ? small1->throughput : -1.0) ? *small1
                                                                                   : *small2);
    }
  }
  return out;
}

DeploymentPlan SegmentAllocator::allocation_optimization(
    DeploymentPlan plan, std::span<const ConfiguredService> services) const {
  ServiceLookup lookup(services);
  const std::size_t before = plan.gpus_in_use();

  // Undo journal, replayed only when the optimized map would use more GPUs
  // than the input: the GPU index of every small segment ALLOCATION placed,
  // in order, and each dissolved GPU as it was just before its first
  // segment left, with the number of placements made before it.
  struct Dissolved {
    std::size_t gpu;
    std::size_t placements_before;
    GpuPlan saved;
  };
  std::vector<std::size_t> placed_on;
  std::vector<Dissolved> dissolved;

  // freed_rate ledger, indexed by service id; surplus capacity from one
  // GPU's re-expression carries (as a negative balance) into the next.
  std::map<int, double> freed_rate;

  // One first-fit cursor per size for the whole pass (see the header).
  FitCursors cursors{};

  for (std::size_t gi = plan.gpu_count(); gi-- > 0;) {
    GpuPlan& gpu = plan.gpu(gi);
    if (gpu.empty()) continue;
    if (gpu.allocated_gpcs() > options_.optimization_threshold_gpcs) continue;

    SegmentQueues queues;
    bool stripped = false;
    // Free segments whose service can be re-expressed with small triplets;
    // segments of services lacking size-1/2 triplets stay in place.
    for (std::size_t si = gpu.segments().size(); si-- > 0;) {
      const ConfiguredService* service = lookup.find(gpu.segments()[si].service_id);
      if (service == nullptr) continue;
      if (!service->opt_tri_array[0].has_value() && !service->opt_tri_array[1].has_value()) {
        continue;  // SMALLSEGMENTS would come back empty; keep the segment
      }
      if (!stripped) {  // journal the GPU as it is, before its first removal
        dissolved.push_back(Dissolved{gi, placed_on.size(), gpu});
        stripped = true;
      }
      const PlacedSegment freed = gpu.remove_segment(si);
      double& rate = freed_rate[service->spec.id];
      rate += freed.triplet.throughput;
      for (const Triplet& small : small_segments(*service, rate)) {
        rate -= small.throughput;
        enqueue(queues, service->spec.id, small);
      }
    }
    // Nothing left this GPU: it is as it was, and nothing is re-placed.
    if (!stripped) continue;
    // The strip is the pass's only removal; pull back every cursor beyond
    // gi for each size gi now fits. Done before any placement, which may
    // append a GPU and leave `gpu` dangling.
    for (const int size : gpu::kInstanceSizes) {
      std::size_t& cursor = cursors[static_cast<std::size_t>(size)];
      if (cursor > gi && gpu.can_fit(size)) cursor = gi;
    }
    // Reallocate the small segments; first fit from the front, so they
    // sink into earlier gaps when any exist.
    run_allocation(queues, plan, cursors, &placed_on);
  }

  if (plan.gpus_in_use() > before) {
    // Roll back in reverse: pop each placement (always its GPU's last
    // segment by then), restore each dissolved GPU. GPUs that ALLOCATION
    // appended are left empty and dropped by compact().
    const auto undo_placements_down_to = [&](std::size_t count) {
      for (; placed_on.size() > count; placed_on.pop_back()) {
        GpuPlan& gpu = plan.gpu(placed_on.back());
        gpu.remove_segment(gpu.segments().size() - 1);
      }
    };
    for (auto it = dissolved.rbegin(); it != dissolved.rend(); ++it) {
      undo_placements_down_to(it->placements_before);
      plan.gpu(it->gpu) = std::move(it->saved);
    }
    undo_placements_down_to(0);
  }
  plan.compact();
  return plan;
}

Result<DeploymentPlan> SegmentAllocator::allocate(
    std::span<const ConfiguredService> services) const {
  auto relocated = segment_relocation(services);
  if (!relocated.ok()) return relocated;
  if (!options_.optimize) {
    DeploymentPlan plan = std::move(relocated).value();
    plan.compact();
    return plan;
  }
  return allocation_optimization(std::move(relocated).value(), services);
}

Status SegmentAllocator::place_service(DeploymentPlan& plan,
                                       const ConfiguredService& service) const {
  SegmentQueues queues;
  enqueue_service(queues, service);
  FitCursors cursors{};
  run_allocation(queues, plan, cursors);
  return Status::Ok();
}

}  // namespace parva::core

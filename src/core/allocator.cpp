#include "core/allocator.hpp"

#include <algorithm>
#include <cmath>

namespace parva::core {

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
                                      std::vector<std::size_t>* placed_on) {
  // Largest-size queues first (std::greater key order), first-fit front to
  // back across GPUs; find_start_slot applies the slot-preference rules.
  // ALLOCATION only fills slots, and whether a size fits is monotone in the
  // occupied mask, so a GPU that cannot take size k now never can later in
  // this call. Each queue's search therefore resumes at the GPU where its
  // previous segment landed: the same GPU a scan from 0 would pick, at
  // O(sizes x GPUs + segments) instead of O(segments x GPUs).
  for (const auto& [gpcs, queue] : queues) {
    std::size_t cursor = 0;
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
  run_allocation(queues, plan);
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
  auto find_service = [&](int id) -> const ConfiguredService* {
    for (const ConfiguredService& service : services) {
      if (service.spec.id == id) return &service;
    }
    return nullptr;
  };

  const std::size_t before = plan.gpus_in_use();

  // Undo journal, replayed only when the optimized map would use more GPUs
  // than the input: the GPU index of every small segment ALLOCATION placed,
  // in order, and each dissolved GPU as it was before its strip, with the
  // number of placements made before it.
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

  for (std::size_t gi = plan.gpu_count(); gi-- > 0;) {
    GpuPlan& gpu = plan.gpu(gi);
    if (gpu.empty()) continue;
    if (gpu.allocated_gpcs() > options_.optimization_threshold_gpcs) continue;

    dissolved.push_back(Dissolved{gi, placed_on.size(), gpu});
    SegmentQueues queues;
    // Free segments whose service can be re-expressed with small triplets;
    // segments of services lacking size-1/2 triplets stay in place.
    for (std::size_t si = gpu.segments().size(); si-- > 0;) {
      const PlacedSegment& placed = gpu.segments()[si];
      const ConfiguredService* service = find_service(placed.service_id);
      if (service == nullptr) continue;
      if (!service->opt_tri_array[0].has_value() && !service->opt_tri_array[1].has_value()) {
        continue;  // SMALLSEGMENTS would come back empty; keep the segment
      }
      const PlacedSegment freed = gpu.remove_segment(si);
      freed_rate[service->spec.id] += freed.triplet.throughput;
      for (const Triplet& small : small_segments(*service, freed_rate[service->spec.id])) {
        freed_rate[service->spec.id] -= small.throughput;
        enqueue(queues, service->spec.id, small);
      }
    }
    // Reallocate the small segments; ALLOCATION scans from the front, so
    // they sink into earlier gaps when any exist.
    run_allocation(queues, plan, &placed_on);
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
  run_allocation(queues, plan);
  return Status::Ok();
}

}  // namespace parva::core

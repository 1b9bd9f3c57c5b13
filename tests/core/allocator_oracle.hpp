// Reference implementations kept as test oracles for the allocator's
// fast paths: Allocation Optimization run on a copy of the map (kept only
// when it uses no more GPUs), and a single-service update built on it.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "core/reconfigure.hpp"
#include "tests/core/configurator_oracle.hpp"

namespace parva::core::testing {

/// Copy-then-optimize oracle for stage 2 of Alg. 2: the pass runs on a copy
/// of `input`, each small segment placed by a first-fit scan from GPU 0, and
/// the copy is kept only when it uses no more GPUs than `input`. Returns the
/// kept map compacted.
inline DeploymentPlan copy_then_optimize(const DeploymentPlan& input,
                                         const std::vector<ConfiguredService>& services,
                                         int threshold_gpcs = 4) {
  std::map<int, const ConfiguredService*> by_id;  // first service with an id wins
  for (const ConfiguredService& service : services) by_id.emplace(service.spec.id, &service);

  DeploymentPlan candidate = input;
  std::map<int, double> freed_rate;
  for (std::size_t gi = candidate.gpu_count(); gi-- > 0;) {
    GpuPlan& gpu = candidate.gpu(gi);
    if (gpu.empty() || gpu.allocated_gpcs() > threshold_gpcs) continue;
    std::map<int, std::vector<Segment>, std::greater<int>> queues;
    for (std::size_t si = gpu.segments().size(); si-- > 0;) {
      const auto it = by_id.find(gpu.segments()[si].service_id);
      if (it == by_id.end()) continue;
      const ConfiguredService& service = *it->second;
      if (!service.opt_tri_array[0].has_value() && !service.opt_tri_array[1].has_value()) continue;
      double& rate = freed_rate[service.spec.id];
      rate += gpu.remove_segment(si).triplet.throughput;
      for (const Triplet& small : SegmentAllocator::small_segments(service, rate)) {
        rate -= small.throughput;
        queues[small.gpcs].push_back(Segment{service.spec.id, small});
      }
    }
    for (const auto& [gpcs, queue] : queues) {
      for (const Segment& segment : queue) {
        candidate.place_first_fit(segment.service_id, segment.triplet);
      }
    }
  }
  DeploymentPlan kept = candidate.gpus_in_use() <= input.gpus_in_use() ? candidate : input;
  kept.compact();
  return kept;
}

/// Every field of a plan that a placement or a rollback can touch: GPU ids
/// and occupied masks, and each segment's service, slot and triplet.
inline std::string dump(const DeploymentPlan& plan) {
  std::string out;
  for (const GpuPlan& gpu : plan.gpus()) {
    out += std::to_string(gpu.id()) + "/" + std::to_string(gpu.occupied_mask()) + "[";
    for (const PlacedSegment& segment : gpu.segments()) {
      out += " s" + std::to_string(segment.service_id) + ":" +
             std::to_string(segment.triplet.gpcs) + "@" +
             std::to_string(segment.placement.start_slot) + "/b" +
             std::to_string(segment.triplet.batch) + "p" +
             std::to_string(segment.triplet.procs) + "/" +
             std::to_string(segment.triplet.throughput);
    }
    out += " ]";
  }
  return out;
}

/// Single-service update oracle (Section III-F) as first written: configure
/// the service by the profile-table scan, strip it, re-place its new
/// segments, count segments before and after, then copy-then-optimize and
/// compact.
inline Result<ReconfigureStats> reference_update(DeploymentPlan& plan,
                                                 std::vector<ConfiguredService>& configured,
                                                 const ServiceSpec& updated_spec,
                                                 const profiler::ProfileSet& profiles) {
  const SegmentAllocator allocator;
  auto configured_one = scan_configure_one(SegmentConfigurator(), updated_spec, profiles);
  if (!configured_one.ok()) return configured_one.error();
  const ConfiguredService service = std::move(configured_one).value();

  ReconfigureStats stats;
  for (GpuPlan& gpu : plan.gpus()) {
    for (std::size_t i = gpu.segments().size(); i-- > 0;) {
      if (gpu.segments()[i].service_id == updated_spec.id) {
        gpu.remove_segment(i);
        ++stats.segments_removed;
      }
    }
    stats.segments_untouched += static_cast<int>(gpu.segments().size());
  }
  const std::size_t before_units = plan.all_segments().size();
  const Status placed = allocator.place_service(plan, service);
  if (!placed.ok()) return placed.error();
  stats.segments_added = static_cast<int>(plan.all_segments().size() - before_units);

  const auto it = std::find_if(configured.begin(), configured.end(),
                               [&](const auto& c) { return c.spec.id == updated_spec.id; });
  if (it != configured.end()) {
    *it = service;
  } else {
    configured.push_back(service);
  }
  plan = copy_then_optimize(plan, configured);
  plan.compact();
  return stats;
}

}  // namespace parva::core::testing

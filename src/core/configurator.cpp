#include "core/configurator.hpp"

#include <cmath>
#include <string>
#include <utility>

namespace parva::core {

Result<ConfiguredService> SegmentConfigurator::triplet_decision(
    const ServiceSpec& spec, const profiler::ProfileSurface& surface) const {
  if (Status valid = validate(spec); !valid.ok()) return valid.error();

  const double latency_bound = spec.slo_latency_ms * kInternalLatencyFactor;

  ConfiguredService configured;
  configured.spec = spec;

  // UPDATEMAXTRIPLETS on the surface: per instance size, the prefix-argmax
  // shelf answers "max throughput with latency strictly below the bound"
  // directly; the winner (including tie order) equals the table scan's.
  bool any = false;
  for (int index = 0; index < kInstanceSizeCount; ++index) {
    const int gpcs = instance_size_from_index(index);
    const profiler::ProfilePoint* best =
        surface.best_below(gpcs, options_.max_processes, latency_bound);
    if (best == nullptr) continue;
    configured.opt_tri_array[static_cast<std::size_t>(index)] = to_triplet(*best);
    any = true;
  }

  if (!any) {
    return Error(ErrorCode::kCapacityExceeded,
                 "service " + std::to_string(spec.id) + " (" + spec.model +
                     "): no instance size meets the internal latency bound of " +
                     std::to_string(latency_bound) + " ms");
  }
  return configured;
}

Status SegmentConfigurator::demand_matching(ConfiguredService& service) const {
  // Hand-built configurations reach here without triplet_decision's check.
  if (Status valid = validate(service.spec); !valid.ok()) return valid;

  // OPTSEG: the triplet maximising Throughput/InstanceSize. By Eq. 2 this
  // minimises the GPC count for any request rate, making the tree search
  // of Section III-D2 an O(1) decision.
  const Triplet* best = nullptr;
  for (const auto& candidate : service.opt_tri_array) {
    if (!candidate.has_value()) continue;
    if (best == nullptr || candidate->throughput_per_gpc() > best->throughput_per_gpc()) {
      best = &*candidate;
    }
  }
  if (best == nullptr) {
    return Status(ErrorCode::kInternal, "demand_matching before triplet_decision");
  }
  service.opt_seg = *best;

  const double rate = service.spec.request_rate;
  if (rate <= 0.0) {
    service.num_opt_seg = 0;
    service.last_seg.reset();
    return Status::Ok();
  }

  // Checked before the cast (negated so a NaN quotient fails too).
  const double whole = std::floor(rate / service.opt_seg.throughput);
  if (!(whole <= static_cast<double>(kMaxSegmentsPerService))) {
    return Status(ErrorCode::kCapacityExceeded,
                  "service " + std::to_string(service.spec.id) + " (" + service.spec.model +
                      "): request rate " + std::to_string(rate) + " req/s needs more than " +
                      std::to_string(kMaxSegmentsPerService) + " whole segments");
  }
  service.num_opt_seg = static_cast<int>(whole);

  // GETLEFTREQRATE: remainder after the whole optimal segments.
  const double left =
      rate - static_cast<double>(service.num_opt_seg) * service.opt_seg.throughput;
  constexpr double kRateEpsilon = 1e-9;
  if (left <= kRateEpsilon) {
    service.last_seg.reset();
    return Status::Ok();
  }

  // LASTSEG: the smallest instance size whose best triplet covers the
  // remainder (preventing internal slack on the final segment).
  service.last_seg.reset();
  for (const auto& candidate : service.opt_tri_array) {  // array is ordered by size
    if (!candidate.has_value()) continue;
    if (candidate->throughput >= left) {
      service.last_seg = *candidate;
      break;
    }
  }
  if (!service.last_seg.has_value()) {
    // The remainder is below one optimal segment's throughput, so the
    // optimal segment itself always covers it; reaching here means the
    // triplet array was inconsistent.
    service.last_seg = service.opt_seg;
  }
  return Status::Ok();
}

Result<std::vector<ConfiguredService>> SegmentConfigurator::configure(
    std::span<const ServiceSpec> services, const profiler::ProfileSurfaceSet& surfaces) const {
  std::vector<ConfiguredService> configured;
  configured.reserve(services.size());
  for (const ServiceSpec& spec : services) {
    const profiler::ProfileSurface* surface = surfaces.find(spec.model);
    if (surface == nullptr) {
      return Error(ErrorCode::kNotFound, "no profile for model " + spec.model);
    }
    auto result = triplet_decision(spec, *surface);
    if (!result.ok()) return result.error();
    ConfiguredService service = std::move(result).value();
    const Status matched = demand_matching(service);
    if (!matched.ok()) return matched.error();
    configured.push_back(std::move(service));
  }
  return configured;
}

}  // namespace parva::core

// Reference implementation kept as a test oracle for the Segment
// Configurator: Optimal Triplet Decision as a full scan of the profile
// table, and Algorithm 1 over a ProfileSet built on it. The production path
// answers the same queries from indexed profile surfaces and must agree
// with these bit for bit.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/configurator.hpp"
#include "profiler/profile_types.hpp"

namespace parva::core::testing {

/// TripletDecision by a table scan: keeps the maximum-throughput point per
/// instance size whose latency fits the internal bound (the first such
/// point wins a throughput tie). Fails with kCapacityExceeded when no
/// instance size can meet the SLO at all.
inline Result<ConfiguredService> scan_triplet_decision(const SegmentConfigurator& configurator,
                                                       const ServiceSpec& spec,
                                                       const profiler::ProfileTable& profile) {
  const ConfiguratorOptions& options = configurator.options();
  PARVA_REQUIRE(spec.slo_latency_ms > 0.0, "service SLO latency must be positive");
  PARVA_REQUIRE(spec.request_rate >= 0.0, "service request rate must be non-negative");

  const double latency_bound = spec.slo_latency_ms * kInternalLatencyFactor;

  ConfiguredService configured;
  configured.spec = spec;

  // UPDATEMAXTRIPLETS: keep the maximum-throughput point per instance size
  // among points whose latency is below the internal bound.
  for (const profiler::ProfilePoint& point : profile.points()) {
    if (point.oom) continue;
    if (point.procs > options.max_processes) continue;
    if (point.latency_ms >= latency_bound) continue;
    const int index = instance_size_index(point.gpcs);
    if (index < 0) continue;
    auto& slot = configured.opt_tri_array[static_cast<std::size_t>(index)];
    if (!slot.has_value() || point.throughput > slot->throughput) {
      slot = to_triplet(point);
    }
  }

  const bool any = std::any_of(configured.opt_tri_array.begin(), configured.opt_tri_array.end(),
                               [](const auto& t) { return t.has_value(); });
  if (!any) {
    return Error(ErrorCode::kCapacityExceeded,
                 "service " + std::to_string(spec.id) + " (" + spec.model +
                     "): no instance size meets the internal latency bound of " +
                     std::to_string(latency_bound) + " ms");
  }
  return configured;
}

/// One service through the table scan and Demand Matching; kNotFound when
/// `profiles` holds no table for its model.
inline Result<ConfiguredService> scan_configure_one(const SegmentConfigurator& configurator,
                                                    const ServiceSpec& spec,
                                                    const profiler::ProfileSet& profiles) {
  const profiler::ProfileTable* table = profiles.find(spec.model);
  if (table == nullptr) {
    return Error(ErrorCode::kNotFound, "no profile for model " + spec.model);
  }
  auto result = scan_triplet_decision(configurator, spec, *table);
  if (!result.ok()) return result.error();
  ConfiguredService service = std::move(result).value();
  const Status matched = configurator.demand_matching(service);
  if (!matched.ok()) return matched.error();
  return service;
}

/// Full Algorithm 1 over a service set through the table scan, in input
/// order; the first failing service's error is returned.
inline Result<std::vector<ConfiguredService>> scan_configure(
    const SegmentConfigurator& configurator, std::span<const ServiceSpec> services,
    const profiler::ProfileSet& profiles) {
  std::vector<ConfiguredService> configured;
  configured.reserve(services.size());
  for (const ServiceSpec& spec : services) {
    auto result = scan_configure_one(configurator, spec, profiles);
    if (!result.ok()) return result.error();
    configured.push_back(std::move(result).value());
  }
  return configured;
}

}  // namespace parva::core::testing

#include "core/reconfigure.hpp"

#include <algorithm>
#include <string>

namespace parva::core {

Result<ReconfigureStats> Reconfigurer::update_service(
    DeploymentPlan& plan, std::vector<ConfiguredService>& configured,
    const ServiceSpec& updated_spec, const profiler::ProfileSurfaceSet& surfaces) const {
  const profiler::ProfileSurface* surface = surfaces.find(updated_spec.model);
  if (surface == nullptr) {
    return Error(ErrorCode::kNotFound, "no profile for model " + updated_spec.model);
  }

  // Re-profiling is unnecessary (Section III-F): the Configurator
  // reconstructs the optimal segments from the existing profile data.
  auto reconfigured = configurator_.triplet_decision(updated_spec, *surface);
  if (!reconfigured.ok()) return reconfigured.error();
  ConfiguredService service = std::move(reconfigured).value();
  const Status matched = configurator_.demand_matching(service);
  if (!matched.ok()) return matched.error();

  ReconfigureStats stats;

  // Strip the service's old segments; everything else stays put.
  for (auto& gpu : plan.gpus()) {
    for (std::size_t i = gpu.segments().size(); i-- > 0;) {
      if (gpu.segments()[i].service_id == updated_spec.id) {
        gpu.remove_segment(i);
        ++stats.segments_removed;
      }
    }
    stats.segments_untouched += static_cast<int>(gpu.segments().size());
  }

  // Targeted relocation for this service into the existing map; ALLOCATION
  // places every segment it is given.
  const Status placed = allocator_.place_service(plan, service);
  if (!placed.ok()) return placed.error();
  stats.segments_added = service.num_opt_seg + (service.last_seg.has_value() ? 1 : 0);

  // Update the configured set, then run the optimization stage to squeeze
  // out fragmentation the update may have opened (it returns the map
  // compacted); the unoptimized variant only compacts.
  const auto it = std::find_if(configured.begin(), configured.end(), [&](const auto& c) {
    return c.spec.id == updated_spec.id;
  });
  if (it != configured.end()) {
    *it = std::move(service);
  } else {
    configured.push_back(std::move(service));
  }
  if (allocator_.options().optimize) {
    plan = allocator_.allocation_optimization(std::move(plan), configured);
  } else {
    plan.compact();
  }

  if (telemetry_ != nullptr) {
    telemetry_->events().record(
        telemetry::EventKind::kPlanDiff, /*t_ms=*/0.0, /*gpu=*/-1, updated_spec.id,
        static_cast<double>(stats.segments_added),
        "removed=" + std::to_string(stats.segments_removed) +
            " added=" + std::to_string(stats.segments_added) +
            " untouched=" + std::to_string(stats.segments_untouched));
    telemetry::MetricsRegistry& m = telemetry_->metrics();
    m.counter("parva_reconfigure_updates_total", "Single-service plan updates applied").inc();
    m.counter("parva_reconfigure_segments_removed_total",
              "Segments stripped from updated services")
        .inc(static_cast<double>(stats.segments_removed));
    m.counter("parva_reconfigure_segments_added_total",
              "Segments placed for updated services")
        .inc(static_cast<double>(stats.segments_added));
  }
  return stats;
}

}  // namespace parva::core

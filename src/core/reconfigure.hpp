// SLO-change reconfiguration (paper Section III-F): when a service's SLO
// (or rate) changes, only that service is re-configured and re-placed; all
// other services keep their placements, so the physical reconfiguration
// cost is proportional to the one service's segments.
#pragma once

#include <span>
#include <vector>

#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "core/plan.hpp"
#include "profiler/profile_surface.hpp"
#include "telemetry/telemetry.hpp"

namespace parva::core {

struct ReconfigureStats {
  int segments_removed = 0;   ///< old segments of the updated service
  int segments_added = 0;     ///< new segments placed for it
  int segments_untouched = 0; ///< segments of other services left in place
};

class Reconfigurer {
 public:
  /// `telemetry` (nullptr = disabled) receives a plan-diff event per update;
  /// the produced plans are identical either way.
  Reconfigurer(SegmentConfigurator configurator, SegmentAllocator allocator,
               telemetry::Telemetry* telemetry = nullptr)
      : configurator_(std::move(configurator)), allocator_(std::move(allocator)),
        telemetry_(telemetry) {}

  /// Applies an updated spec for one service: re-runs the Segment
  /// Configurator for it alone against the indexed surfaces (no
  /// re-profiling), strips its old segments from the map, re-places the new
  /// ones into the existing map, then runs Allocation Optimization when the
  /// allocator's `optimize` option is set. `plan` and `configured` are
  /// updated in place; a configuration failure leaves both untouched.
  [[nodiscard]] Result<ReconfigureStats> update_service(DeploymentPlan& plan,
                                          std::vector<ConfiguredService>& configured,
                                          const ServiceSpec& updated_spec,
                                          const profiler::ProfileSurfaceSet& surfaces) const;

 private:
  SegmentConfigurator configurator_;
  SegmentAllocator allocator_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace parva::core

// The ParvaGPU scheduler facade: Segment Configurator + Segment Allocator
// behind the framework-neutral Scheduler interface. Also provides the
// ParvaGPU-single (no MPS) and ParvaGPU-unoptimized (no Allocation
// Optimization) variants used in the paper's ablations.
//
// schedule() is the paper's "predictor" mode: it produces a deployment map
// without touching hardware; the Deployer (deployer.hpp) materialises a map
// on the (simulated) cluster afterwards.
#pragma once

#include <span>

#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "core/deployment.hpp"
#include "profiler/profile_types.hpp"
#include "telemetry/telemetry.hpp"

namespace parva::core {

struct ParvaGpuOptions {
  /// false reproduces ParvaGPU-single: one process per segment.
  bool use_mps = true;
  /// false reproduces ParvaGPU-unoptimized: relocation only.
  bool optimize_allocation = true;
  double internal_latency_factor = 0.5;
  int optimization_threshold_gpcs = 4;
  /// Observability sink (nullptr = disabled, the default). schedule() emits
  /// a completion event plus run counters; plans are identical either way.
  telemetry::Telemetry* telemetry = nullptr;
};

class ParvaGpuScheduler final : public Scheduler {
 public:
  /// `profiles` must contain a table for every model that will be
  /// scheduled; profiling is the one-time cost of Section III-C and is
  /// deliberately outside the scheduling-delay measurement. The profile
  /// surfaces are indexed here, in the same one-time registration phase,
  /// and copy the points, so `profiles` may go away afterwards.
  ParvaGpuScheduler(const profiler::ProfileSet& profiles, ParvaGpuOptions options = {});

  std::string name() const override;
  /// Configures and allocates `services`. Returns kInvalidArgument, before
  /// configuring anything, when two services share an id.
  [[nodiscard]] Result<ScheduleResult> schedule(std::span<const ServiceSpec> services) override;

  /// The last run's internals, for the Deployer and reconfiguration path.
  const DeploymentPlan& last_plan() const { return last_plan_; }
  const std::vector<ConfiguredService>& last_configured() const { return last_configured_; }

  /// Converts a deployment map into the framework-neutral form. MIG
  /// isolation means actual == planned for every unit.
  static Deployment to_deployment(const DeploymentPlan& plan, std::string framework_name);

  const ParvaGpuOptions& parva_options() const { return options_; }
  /// The indexed profile surfaces the scheduler plans against.
  const profiler::ProfileSurfaceSet& surfaces() const { return surfaces_; }

 private:
  profiler::ProfileSurfaceSet surfaces_;
  ParvaGpuOptions options_;
  SegmentConfigurator configurator_;
  SegmentAllocator allocator_;
  DeploymentPlan last_plan_;
  std::vector<ConfiguredService> last_configured_;
};

}  // namespace parva::core

// Shared experiment harness: builds schedulers by framework id, runs them
// on a scenario, computes the paper's metrics, and optionally executes the
// deployment in the discrete-event simulator. Every bench binary (one per
// figure) is a thin wrapper over this module.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/deployment.hpp"
#include "perfmodel/analytical_model.hpp"
#include "profiler/profile_surface.hpp"
#include "profiler/profile_types.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"

namespace parva::scenarios {

enum class Framework {
  kGpulet,
  kIgniter,
  kMigServing,
  kParvaGpu,
  kParvaGpuSingle,
  kParvaGpuUnoptimized,
};

std::string framework_name(Framework framework);

/// Including the ParvaGPU ablation variants.
std::vector<Framework> all_frameworks();

/// Heavy shared state: the performance model, the one-time profile grid,
/// its indexed query surface, and the thread pool that runs seed-sweep
/// simulations concurrently.
class ExperimentContext {
 public:
  /// Builds the context for the built-in 11-model catalog.
  static ExperimentContext create();

  const perfmodel::AnalyticalPerfModel& perf() const { return *perf_; }
  const profiler::ProfileSet& profiles() const { return profiles_; }
  /// Indexed surfaces over `profiles()` (built once at create()).
  const profiler::ProfileSurfaceSet& surfaces() const { return surfaces_; }
  ThreadPool& pool() const { return *pool_; }

  /// Fresh scheduler instance for a framework.
  std::unique_ptr<core::Scheduler> make_scheduler(Framework framework) const;

 private:
  ExperimentContext() = default;
  std::unique_ptr<perfmodel::AnalyticalPerfModel> perf_;
  profiler::ProfileSet profiles_;
  profiler::ProfileSurfaceSet surfaces_;
  std::unique_ptr<ThreadPool> pool_;
};

struct ExperimentResult {
  std::string framework;
  std::string scenario;
  bool feasible = false;
  std::string failure;

  int gpu_count = 0;
  double internal_slack = 0.0;          ///< analytic (Eq. 3 with modelled activity)
  double external_fragmentation = 0.0;  ///< strict Eq. 4 complement
  double fragmentation_excl_tail = 0.0; ///< ignoring the trailing partial GPU
  double scheduling_delay_ms = 0.0;

  bool ran_simulation = false;
  double slo_compliance = 1.0;          ///< batch-weighted (Fig. 8 metric)
  double worst_service_compliance = 1.0;
  double measured_internal_slack = 0.0; ///< Eq. 3 from DCGM-style counters
  /// max over services of (p99 request latency / SLO): < 1 means every
  /// service has tail headroom.
  double worst_p99_over_slo = 0.0;
};

struct ExperimentOptions {
  bool run_simulation = false;
  serving::SimulationOptions sim;
};

ExperimentResult run_experiment(const ExperimentContext& context, Framework framework,
                                const Scenario& scenario, const ExperimentOptions& options = {});

/// Seed sweep: schedules ONCE, then runs one simulation per seed
/// concurrently on the context's pool. Results are in seed order and each
/// is identical to a serial run_experiment with that seed (the simulator
/// is a pure function of (deployment, options)). If scheduling fails, the
/// single returned entry carries the failure.
std::vector<ExperimentResult> run_experiment_seeds(const ExperimentContext& context,
                                                   Framework framework,
                                                   const Scenario& scenario,
                                                   const ExperimentOptions& base,
                                                   std::span<const std::uint64_t> seeds);

}  // namespace parva::scenarios

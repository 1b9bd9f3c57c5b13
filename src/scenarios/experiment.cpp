#include "scenarios/experiment.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "baselines/gpulet.hpp"
#include "baselines/igniter.hpp"
#include "baselines/mig_serving.hpp"
#include "core/metrics.hpp"
#include "core/parvagpu.hpp"
#include "gpu/arch.hpp"
#include "profiler/profiler.hpp"
#include "serving/sim_runner.hpp"

namespace parva::scenarios {

std::string framework_name(Framework framework) {
  switch (framework) {
    case Framework::kGpulet: return "gpulet";
    case Framework::kIgniter: return "iGniter";
    case Framework::kMigServing: return "MIG-serving";
    case Framework::kParvaGpu: return "ParvaGPU";
    case Framework::kParvaGpuSingle: return "ParvaGPU-single";
    case Framework::kParvaGpuUnoptimized: return "ParvaGPU-unoptimized";
  }
  return "unknown";
}

std::vector<Framework> headline_frameworks() {
  return {Framework::kGpulet, Framework::kIgniter, Framework::kMigServing,
          Framework::kParvaGpu};
}

std::vector<Framework> all_frameworks() {
  return {Framework::kGpulet,   Framework::kIgniter,        Framework::kMigServing,
          Framework::kParvaGpu, Framework::kParvaGpuSingle, Framework::kParvaGpuUnoptimized};
}

ExperimentContext ExperimentContext::create() {
  ExperimentContext context;
  context.perf_ = std::make_unique<perfmodel::AnalyticalPerfModel>(
      perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(*context.perf_);
  context.profiles_ = profiler.profile_all(perfmodel::ModelCatalog::builtin().names());
  context.surfaces_ = profiler::ProfileSurfaceSet(context.profiles_);
  context.pool_ = std::make_unique<ThreadPool>();
  return context;
}

std::unique_ptr<core::Scheduler> ExperimentContext::make_scheduler(Framework framework) const {
  switch (framework) {
    case Framework::kGpulet:
      return std::make_unique<baselines::GpuletScheduler>(*perf_);
    case Framework::kIgniter:
      return std::make_unique<baselines::IgniterScheduler>(*perf_);
    case Framework::kMigServing:
      return std::make_unique<baselines::MigServingScheduler>(profiles_);
    case Framework::kParvaGpu:
      return std::make_unique<core::ParvaGpuScheduler>(profiles_);
    case Framework::kParvaGpuSingle: {
      core::ParvaGpuOptions options;
      options.use_mps = false;
      return std::make_unique<core::ParvaGpuScheduler>(profiles_, options);
    }
    case Framework::kParvaGpuUnoptimized: {
      core::ParvaGpuOptions options;
      options.optimize_allocation = false;
      return std::make_unique<core::ParvaGpuScheduler>(profiles_, options);
    }
  }
  throw std::logic_error("unknown framework");
}

namespace {

/// Fragmentation ignoring the trailing partially-filled GPU: the measure of
/// unusable holes the Allocation Optimization targets (a cluster always has
/// a rounding remainder on its last GPU).
double fragmentation_excluding_tail(const core::Deployment& deployment) {
  if (deployment.gpu_count <= 1) return 0.0;
  // Per-GPU granted GPCs.
  std::vector<double> granted(static_cast<std::size_t>(deployment.gpu_count), 0.0);
  for (const core::DeployedUnit& unit : deployment.units) {
    if (unit.gpu_index >= 0 && unit.gpu_index < deployment.gpu_count) {
      granted[static_cast<std::size_t>(unit.gpu_index)] += unit.gpc_grant;
    }
  }
  // The least-filled GPU is the rounding tail; exclude it.
  const auto tail = std::min_element(granted.begin(), granted.end());
  double total = 0.0;
  // parva-audit: allow(R14): summed in fixed vector index order.
  for (double g : granted) total += g;
  total -= *tail;
  const double capacity =
      static_cast<double>(deployment.gpu_count - 1) * gpu::kGpcSlots;
  return capacity <= 0.0 ? 0.0 : std::max(0.0, 1.0 - total / capacity);
}

/// Folds one simulation outcome into an ExperimentResult (shared between
/// the serial path and the seed sweep).
void apply_simulation(ExperimentResult& result, const serving::SimulationResult& sim_result,
                      std::span<const core::ServiceSpec> services) {
  result.ran_simulation = true;
  result.slo_compliance = sim_result.overall_compliance();
  result.worst_service_compliance = sim_result.worst_compliance();
  result.measured_internal_slack = sim_result.internal_slack;
  for (const serving::ServiceOutcome& outcome : sim_result.services) {
    if (outcome.request_latency_ms.empty()) continue;
    for (const core::ServiceSpec& spec : services) {
      if (spec.id != outcome.service_id || spec.slo_latency_ms <= 0.0) continue;
      result.worst_p99_over_slo = std::max(
          result.worst_p99_over_slo,
          outcome.request_latency_ms.p99() / spec.slo_latency_ms);
    }
  }
}

/// Schedules and fills the planning-side metrics; returns the schedule (or
/// nullopt after recording the failure).
std::optional<core::ScheduleResult> schedule_and_measure(const ExperimentContext& context,
                                                         Framework framework,
                                                         const Scenario& scenario,
                                                         ExperimentResult& result) {
  result.framework = framework_name(framework);
  result.scenario = scenario.name;
  auto scheduler = context.make_scheduler(framework);
  auto outcome = scheduler->schedule(scenario.services);
  if (!outcome.ok()) {
    result.feasible = false;
    result.failure = outcome.error().to_string();
    return std::nullopt;
  }
  result.feasible = true;
  core::ScheduleResult& schedule = outcome.value();
  result.scheduling_delay_ms = schedule.scheduling_delay_ms;

  const core::UtilizationMetrics metrics =
      core::compute_metrics(schedule.deployment, scenario.services);
  result.gpu_count = metrics.gpu_count;
  result.internal_slack = metrics.internal_slack;
  result.external_fragmentation = metrics.external_fragmentation;
  result.fragmentation_excl_tail = fragmentation_excluding_tail(schedule.deployment);
  return std::optional<core::ScheduleResult>(std::move(schedule));
}

}  // namespace

ExperimentResult run_experiment(const ExperimentContext& context, Framework framework,
                                const Scenario& scenario, const ExperimentOptions& options) {
  ExperimentResult result;
  auto schedule = schedule_and_measure(context, framework, scenario, result);
  if (!schedule.has_value()) return result;

  if (options.run_simulation) {
    serving::ClusterSimulation sim(schedule->deployment, scenario.services, context.perf());
    apply_simulation(result, sim.run(options.sim), scenario.services);
  }
  return result;
}

std::vector<ExperimentResult> run_experiment_seeds(const ExperimentContext& context,
                                                   Framework framework,
                                                   const Scenario& scenario,
                                                   const ExperimentOptions& base,
                                                   std::span<const std::uint64_t> seeds) {
  ExperimentResult scheduled;
  auto schedule = schedule_and_measure(context, framework, scenario, scheduled);
  if (!schedule.has_value() || seeds.empty() || !base.run_simulation) {
    return {scheduled};
  }

  const std::vector<serving::SimulationResult> sims = serving::run_seeds(
      schedule->deployment, scenario.services, context.perf(), base.sim, seeds,
      context.pool());
  std::vector<ExperimentResult> results;
  results.reserve(sims.size());
  for (const serving::SimulationResult& sim_result : sims) {
    ExperimentResult result = scheduled;  // planning metrics are seed-independent
    apply_simulation(result, sim_result, scenario.services);
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace parva::scenarios

#include "core/parvagpu.hpp"

#include <chrono>
#include <string>

namespace parva::core {
namespace {

ConfiguratorOptions make_configurator_options(const ParvaGpuOptions& options) {
  ConfiguratorOptions out;
  out.max_processes = options.use_mps ? 3 : 1;
  return out;
}

AllocatorOptions make_allocator_options(const ParvaGpuOptions& options) {
  AllocatorOptions out;
  out.optimization_threshold_gpcs = options.optimization_threshold_gpcs;
  out.optimize = options.optimize_allocation;
  return out;
}

}  // namespace

ParvaGpuScheduler::ParvaGpuScheduler(const profiler::ProfileSet& profiles,
                                     ParvaGpuOptions options)
    : surfaces_(profiles),
      options_(options),
      configurator_(make_configurator_options(options)),
      allocator_(make_allocator_options(options)) {}

std::string ParvaGpuScheduler::name() const {
  if (!options_.use_mps) return "ParvaGPU-single";
  if (!options_.optimize_allocation) return "ParvaGPU-unoptimized";
  return "ParvaGPU";
}

Deployment ParvaGpuScheduler::to_deployment(const DeploymentPlan& plan,
                                            std::string framework_name) {
  Deployment deployment;
  deployment.framework = std::move(framework_name);
  deployment.uses_mig = true;
  deployment.gpu_count = static_cast<int>(plan.gpus_in_use());
  const auto segments = plan.all_segments();
  deployment.units.reserve(segments.size());
  for (const auto& [gpu_index, placed] : segments) {
    DeployedUnit unit;
    unit.service_id = placed->service_id;
    unit.gpu_index = static_cast<int>(gpu_index);
    unit.gpc_grant = static_cast<double>(placed->triplet.gpcs);
    unit.placement = placed->placement;
    unit.batch = placed->triplet.batch;
    unit.procs = placed->triplet.procs;
    unit.planned_throughput = placed->triplet.throughput;
    unit.planned_latency_ms = placed->triplet.latency_ms;
    unit.actual_throughput = placed->triplet.throughput;  // MIG: no interference
    unit.actual_latency_ms = placed->triplet.latency_ms;
    unit.sm_occupancy = placed->triplet.sm_occupancy;
    unit.memory_gib = placed->triplet.memory_gib;
    deployment.units.push_back(std::move(unit));
  }
  return deployment;
}

Result<ScheduleResult> ParvaGpuScheduler::schedule(std::span<const ServiceSpec> services) {
  const auto start = std::chrono::steady_clock::now();

  // The index also serves the model fill below, so the id table is built once.
  const ServiceIdIndex by_id(services);
  if (Status valid = validate(services, by_id); !valid.ok()) return valid.error();

  auto configured = configurator_.configure(services, surfaces_);
  if (!configured.ok()) return configured.error();
  auto plan = allocator_.allocate(configured.value());
  if (!plan.ok()) return plan.error();

  last_configured_ = std::move(configured).value();
  last_plan_ = std::move(plan).value();

  ScheduleResult result;
  result.deployment = to_deployment(last_plan_, name());
  // Configuration keeps the input order, so a position in `services` is
  // also the position of that service's configuration.
  for (auto& unit : result.deployment.units) {
    if (const auto pos = by_id.find(unit.service_id)) unit.model = services[*pos].model;
  }

  // The delay covers everything up to the returned Deployment.
  const auto stop = std::chrono::steady_clock::now();
  result.scheduling_delay_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  if (options_.telemetry != nullptr) {
    options_.telemetry->events().record(
        telemetry::EventKind::kScheduleCompleted, /*t_ms=*/0.0, /*gpu=*/-1,
        /*service_id=*/-1, result.scheduling_delay_ms,
        "services=" + std::to_string(services.size()) +
            " gpus=" + std::to_string(result.deployment.gpu_count));
    telemetry::MetricsRegistry& m = options_.telemetry->metrics();
    m.counter("parva_schedule_runs_total", "Full scheduling runs completed").inc();
    m.counter("parva_schedule_services_total", "Services configured across runs")
        .inc(static_cast<double>(services.size()));
    m.gauge("parva_schedule_fleet_gpus", "GPUs required by the latest plan")
        .set(static_cast<double>(result.deployment.gpu_count));
  }
  return result;
}

}  // namespace parva::core

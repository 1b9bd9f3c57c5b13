#include "serving/autoscaler.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace parva::serving {

Result<AutoscaleReport> Autoscaler::run_day(std::span<const core::ServiceSpec> base_services,
                                            const RateTrace& trace) const {
  PARVA_REQUIRE(options_.epoch_minutes > 0.0, "epoch must be positive");
  PARVA_REQUIRE(options_.band_high > options_.band_low, "band must be non-empty");

  // Initial deployment at the first epoch's rates.
  std::vector<core::ServiceSpec> current = {base_services.begin(), base_services.end()};
  const double first_multiplier = trace.multiplier_at(0.0);
  for (auto& spec : current) spec.request_rate *= first_multiplier;

  core::ParvaGpuScheduler scheduler(*profiles_);
  auto initial = scheduler.schedule(current);
  if (!initial.ok()) return initial.error();
  core::DeploymentPlan plan = scheduler.last_plan();
  std::vector<core::ConfiguredService> configured = scheduler.last_configured();
  const core::Reconfigurer reconfigurer{
      core::SegmentConfigurator(), core::SegmentAllocator(), options_.telemetry};

  // Static baseline: one-shot provisioning for the trace peak.
  AutoscaleReport report;
  {
    std::vector<core::ServiceSpec> peak = {base_services.begin(), base_services.end()};
    for (auto& spec : peak) spec.request_rate *= trace.peak();
    core::ParvaGpuScheduler peak_scheduler(*profiles_);
    auto peak_result = peak_scheduler.schedule(peak);
    if (!peak_result.ok()) return peak_result.error();
    report.static_gpu_hours = 24.0 * peak_result.value().deployment.gpu_count;
  }

  const double epoch_hours = options_.epoch_minutes / 60.0;
  Rng seed_stream(options_.seed);

  // Pending device losses, by wall time from 0 h.
  std::vector<gpu::GpuFailureEvent> failures;
  if (options_.fault_plan != nullptr) failures = options_.fault_plan->sorted_gpu_failures();
  std::size_t next_failure = 0;

  for (double t = 0.0; t < 24.0 - 1e-9; t += epoch_hours) {
    const double multiplier = trace.multiplier_at(t);

    EpochRecord record;
    record.t_hours = t;
    record.multiplier = multiplier;

    // Execute device losses whose time falls inside this epoch: the failed
    // GPU's segments vanish, so the band check below sees the displaced
    // services as under-provisioned — lost capacity is a surge.
    const double epoch_end_ms = (t + epoch_hours) * 3'600'000.0;
    for (; next_failure < failures.size() && failures[next_failure].at_ms < epoch_end_ms;
         ++next_failure) {
      if (plan.gpus_in_use() == 0) break;
      // Map the physical index onto the (compacted) plan fleet.
      const auto victim = static_cast<std::size_t>(failures[next_failure].gpu_index) %
                          plan.gpu_count();
      core::GpuPlan& lost = plan.gpu(victim);
      while (!lost.empty()) (void)lost.remove_segment(0);
      ++record.gpus_lost;
      ++report.total_gpu_failures;
    }

    // Update offered rates; reconfigure services out of the capacity band.
    for (std::size_t i = 0; i < current.size(); ++i) {
      current[i].request_rate = base_services[i].request_rate * multiplier;
      record.offered_total += current[i].request_rate;
    }
    for (const core::ServiceSpec& spec : current) {
      double capacity = 0.0;
      for (const auto& [gpu_index, segment] : plan.all_segments()) {
        if (segment->service_id == spec.id) capacity += segment->triplet.throughput;
      }
      const bool starving = capacity < spec.request_rate * options_.band_low;
      const bool bloated = capacity > spec.request_rate * options_.band_high;
      if (!starving && !bloated) continue;
      auto stats = reconfigurer.update_service(plan, configured, spec, scheduler.surfaces());
      if (!stats.ok()) return stats.error();
      ++record.services_reconfigured;
    }
    report.total_reconfigurations += record.services_reconfigured;

    record.gpus = static_cast<int>(plan.gpus_in_use());
    report.gpu_hours += record.gpus * epoch_hours;
    report.peak_gpus = std::max(report.peak_gpus, static_cast<double>(record.gpus));

    if (options_.verify_with_simulation) {
      core::Deployment deployment = core::ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
      for (auto& unit : deployment.units) {
        for (const auto& spec : current) {
          if (spec.id == unit.service_id) unit.model = spec.model;
        }
      }
      ClusterSimulation sim(deployment, current, *perf_);
      SimulationOptions sim_options;
      sim_options.duration_ms = options_.verify_duration_ms;
      sim_options.warmup_ms = options_.verify_duration_ms * 0.1;
      sim_options.seed = seed_stream.next_u64();
      sim_options.telemetry = options_.telemetry;
      const SimulationResult result = sim.run(sim_options);
      record.slo_compliance = result.overall_compliance();
      record.internal_slack = result.internal_slack;
    }
    if (options_.telemetry != nullptr) {
      telemetry::MetricsRegistry& m = options_.telemetry->metrics();
      m.counter("parva_autoscaler_epochs_total", "Autoscaler epochs evaluated").inc();
      m.counter("parva_autoscaler_reconfigurations_total",
                "Services re-placed after drifting out of the capacity band")
          .inc(static_cast<double>(record.services_reconfigured));
      m.gauge("parva_autoscaler_fleet_gpus", "GPUs in use at the latest epoch")
          .set(static_cast<double>(record.gpus));
      options_.telemetry->events().record(
          telemetry::EventKind::kEpochDecision, t * 3'600'000.0, /*gpu=*/-1,
          /*service_id=*/-1, static_cast<double>(record.gpus),
          "reconfigured=" + std::to_string(record.services_reconfigured) +
              " lost=" + std::to_string(record.gpus_lost));
    }
    report.epochs.push_back(record);
  }
  return report;
}

}  // namespace parva::serving

#include "serving/autoscaler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

namespace parva::serving {
namespace {

/// Capacity must stay within [rate * kBandLow, rate * kBandHigh]; outside
/// the band the service is reconfigured (the high bound prevents slack, the
/// low bound prevents violations).
constexpr double kBandLow = 1.0;
constexpr double kBandHigh = 1.6;
/// Seed of the stream that seeds each epoch's verification run.
constexpr std::uint64_t kVerifySeed = 7;

}  // namespace

Result<AutoscaleReport> Autoscaler::run_day(std::span<const core::ServiceSpec> base_services,
                                            const RateTrace& trace) const {
  if (!std::isfinite(options_.epoch_minutes) || options_.epoch_minutes < kMinEpochMinutes) {
    std::ostringstream message;
    message << "autoscaler epoch must be a finite number of minutes, at least "
            << kMinEpochMinutes << ", got " << options_.epoch_minutes;
    return Error(ErrorCode::kInvalidArgument, message.str());
  }

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
  Rng seed_stream(kVerifySeed);

  for (double t = 0.0; t < 24.0 - 1e-9; t += epoch_hours) {
    const double multiplier = trace.multiplier_at(t);

    EpochRecord record;
    record.t_hours = t;
    record.multiplier = multiplier;

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
      const bool starving = capacity < spec.request_rate * kBandLow;
      const bool bloated = capacity > spec.request_rate * kBandHigh;
      if (!starving && !bloated) continue;
      auto stats = reconfigurer.update_service(plan, configured, spec, scheduler.surfaces());
      if (!stats.ok()) return stats.error();
      ++record.services_reconfigured;
    }
    report.total_reconfigurations += record.services_reconfigured;

    record.gpus = static_cast<int>(plan.gpus_in_use());
    report.gpu_hours += record.gpus * epoch_hours;
    report.peak_gpus = std::max(report.peak_gpus, static_cast<double>(record.gpus));

    const core::Deployment deployment =
        core::ParvaGpuScheduler::to_deployment(plan, "ParvaGPU", current);
    ClusterSimulation sim(deployment, current, *perf_);
    SimulationOptions sim_options;
    sim_options.duration_ms = options_.verify_duration_ms;
    sim_options.warmup_ms = options_.verify_duration_ms * 0.1;
    sim_options.seed = seed_stream.next_u64();
    sim_options.telemetry = options_.telemetry;
    const SimulationResult result = sim.run(sim_options);
    record.slo_compliance = result.overall_compliance();
    record.internal_slack = result.internal_slack;
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
          "reconfigured=" + std::to_string(record.services_reconfigured));
    }
    report.epochs.push_back(record);
  }
  return report;
}

}  // namespace parva::serving

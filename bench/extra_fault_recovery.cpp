// Extension: fault injection + self-healing reconfiguration. Kills one GPU
// of the S2 fleet mid-run, drives the repair path (detect -> re-place the
// displaced segments on survivors -> live-update), and measures SLO
// compliance through the failure: pre-failure, degraded (between the loss
// and the repair's activation), and post-recovery, plus a bucketed
// compliance-vs-time series. Transient NVML_ERROR_IN_USE faults are active
// throughout, so the retry/backoff accounting shows up in the same table.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "core/parvagpu.hpp"
#include "core/repair.hpp"
#include "gpu/dcgm_sim.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace parva;

  bench::banner("Extension", "Fault recovery: kill one GPU, self-heal, measure compliance");

  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  const auto profiles = profiler.profile_all(perfmodel::ModelCatalog::builtin().names());
  const auto& scenario = scenarios::scenario("S2");

  core::ParvaGpuScheduler scheduler(profiles);
  core::Deployment deployment = scheduler.schedule(scenario.services).value().deployment;
  const core::Deployment healthy = deployment;

  // Fault plan: lose the busiest GPU at t=10 s; transient create faults at
  // p=0.15 are live for every control-plane call, including the repair's.
  constexpr double kFailAtMs = 10'000.0;
  std::vector<int> units_per_gpu(static_cast<std::size_t>(deployment.gpu_count), 0);
  for (const auto& unit : deployment.units) {
    ++units_per_gpu[static_cast<std::size_t>(unit.gpu_index)];
  }
  int victim = 0;
  for (std::size_t g = 0; g < units_per_gpu.size(); ++g) {
    if (units_per_gpu[g] > units_per_gpu[static_cast<std::size_t>(victim)]) {
      victim = static_cast<int>(g);
    }
  }
  gpu::FaultPlan fault_plan;
  fault_plan.seed = 99;
  fault_plan.gpu_failures = {{kFailAtMs, victim, 79}};
  fault_plan.transient_create_failure_prob = 0.15;

  // Materialise the fleet on the faulty control plane and execute the loss.
  // One telemetry sink across the control plane, the repair, and the
  // simulation — the audit trail of the whole failure drill.
  telemetry::Telemetry telemetry;

  gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim nvml(cluster);
  gpu::DcgmSim dcgm;
  gpu::FaultInjector injector(fault_plan);
  nvml.set_fault_injector(&injector);
  nvml.attach_health_monitor(&dcgm);
  nvml.set_telemetry(&telemetry);
  dcgm.set_telemetry(&telemetry);
  core::Deployer deployer(nvml, perf);
  deployer.set_telemetry(&telemetry);
  core::LiveUpdater updater(deployer);
  auto state = deployer.deploy(deployment).value();

  nvml.set_time_ms(kFailAtMs);
  // parva-audit: allow(R6) fault injection: the bench plants the failure and measures recovery
  (void)nvml.fail_device(static_cast<unsigned>(victim));

  core::RepairOptions repair_options;
  repair_options.telemetry = &telemetry;
  core::RepairCoordinator repairer(deployer, updater, repair_options);
  const auto repair = repairer.handle_gpu_loss(deployment, state, victim).value();
  const double recovered_at = kFailAtMs + repair.recovery_ms;

  // Simulate through the failure: the original units serve until the loss,
  // the repair's replacements activate once recovery completes.
  core::Deployment sim_deployment = healthy;
  serving::SimulationOptions options;
  options.duration_ms = 28'000.0;
  options.warmup_ms = 2'000.0;
  options.seed = 7;
  options.fault_plan = &fault_plan;
  options.recovered_at_ms = recovered_at;
  options.timeline_bucket_ms = 2'000.0;
  for (const auto& unit : repair.replacements) {
    options.activations.push_back({sim_deployment.units.size(), recovered_at});
    sim_deployment.units.push_back(unit);
  }
  sim_deployment.gpu_count = repair.deployment.gpu_count;

  options.telemetry = &telemetry;
  serving::ClusterSimulation sim(sim_deployment, scenario.services, perf);
  const auto result = sim.run(options);

  TextTable timeline({"t (s)", "batches", "compliance", "shed"});
  for (const auto& bucket : result.timeline) {
    timeline.add_row({format_double((options.warmup_ms + bucket.t_ms) / 1000.0, 0),
                      std::to_string(bucket.batches), format_double(bucket.compliance(), 4),
                      std::to_string(bucket.shed_requests)});
  }
  bench::emit(timeline, "extra_fault_recovery_timeline");

  TextTable summary({"metric", "value"});
  summary.add_row({"victim GPU", std::to_string(victim)});
  summary.add_row({"units lost", std::to_string(repair.lost_units)});
  summary.add_row({"displaced rate (req/s)", format_double(repair.displaced_rate, 0)});
  summary.add_row({"recovery time (ms)", format_double(repair.recovery_ms, 0)});
  summary.add_row({"requests shed", std::to_string(result.requests_shed)});
  summary.add_row({"compliance pre-failure", format_double(result.pre_failure.compliance(), 4)});
  summary.add_row({"compliance degraded", format_double(result.degraded.compliance(), 4)});
  summary.add_row(
      {"compliance post-recovery", format_double(result.post_recovery.compliance(), 4)});
  summary.add_row(
      {"transient retries", std::to_string(deployer.total_stats().transient_retries)});
  summary.add_row({"retry backoff (ms)", format_double(deployer.total_stats().backoff_ms, 0)});
  summary.add_row(
      {"fallback placements", std::to_string(deployer.total_stats().fallback_placements)});
  summary.add_row({"health events", std::to_string(dcgm.health_events().size())});
  bench::emit(summary, "extra_fault_recovery_summary");

  const Status prom = telemetry::write_text_file(
      "results/extra_fault_recovery_telemetry.prom",
      telemetry::to_prometheus(telemetry.metrics()));
  const Status jsonl = telemetry::write_text_file(
      "results/extra_fault_recovery_events.jsonl",
      telemetry::to_json_lines(telemetry.events()));
  if (prom.ok() && jsonl.ok()) {
    std::cout << "[telemetry: results/extra_fault_recovery_telemetry.prom ("
              << telemetry.metrics().series_count() << " series), "
              << "results/extra_fault_recovery_events.jsonl ("
              << telemetry.events().size() << " events)]\n\n";
  }

  std::cout << "One device loss degrades compliance only between the XID and the\n"
               "repair's activation; the displaced segments land on surviving GPUs\n"
               "(standby capacity only when their geometry is full), and compliance\n"
               "returns to the pre-failure level.\n";
  return 0;
}

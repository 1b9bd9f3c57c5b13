// Cloud-deployment walkthrough: the paper's S2 workload end to end —
// profile, schedule, materialise on a simulated 8-GPU p4de node through the
// NVML-shaped control plane, then serve 10 simulated seconds of traffic and
// report SLO compliance and measured utilisation.
//
//   $ ./examples/cloud_deployment [--scenario S2] [--duration-ms 10000]
//
// A flag it does not read exits 2; a bad value exits 1, naming the flag.
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "core/deployer.hpp"
#include "core/metrics.hpp"
#include "core/parvagpu.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"

int main(int argc, char** argv) {
  using namespace parva;
  const CliArgs args(argc, argv);
  if (const auto unknown = args.first_unknown({"scenario", "duration-ms"})) {
    std::cerr << "error: cloud_deployment has no flag --" << *unknown << "\n";
    return 2;
  }
  const std::string scenario_name = args.get("scenario", "S2");
  double duration_ms = 10'000.0;
  if (args.has("duration-ms") &&
      (!parse_double(args.get("duration-ms", ""), duration_ms) || !std::isfinite(duration_ms) ||
       duration_ms <= 0.0)) {
    std::cerr << "bad --duration-ms '" << args.get("duration-ms", "")
              << "' (want a finite positive number)\n";
    return 1;
  }
  const scenarios::Scenario* found = nullptr;
  try {
    found = &scenarios::scenario(scenario_name);
  } catch (const std::logic_error& error) {
    std::cerr << "bad --scenario '" << scenario_name << "' (" << error.what() << ")\n";
    return 1;
  }
  const scenarios::Scenario& scenario = *found;
  std::cout << "=== " << scenario_name << ": " << scenario.services.size()
            << " services ===\n";

  // Profile and schedule.
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  const auto profiles = profiler.profile_all(perfmodel::ModelCatalog::builtin().names());
  core::ParvaGpuScheduler scheduler(profiles);
  const auto schedule = scheduler.schedule(scenario.services);
  if (!schedule.ok()) {
    std::cerr << "scheduling failed: " << schedule.error().to_string() << "\n";
    return 1;
  }
  const core::Deployment& deployment = schedule.value().deployment;
  std::cout << "plan: " << scheduler.last_plan().to_string() << "\n";

  // Materialise on a simulated p4de.24xlarge (8x A100; grows elastically).
  gpu::GpuCluster cluster(8);
  gpu::NvmlSim nvml(cluster);
  core::Deployer deployer(nvml, perf);
  const auto state = deployer.deploy(deployment);
  if (!state.ok()) {
    std::cerr << "deployment failed: " << state.error().to_string() << "\n";
    return 1;
  }
  std::cout << "\ncontrol-plane operations (" << nvml.operation_count() << " total):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(6, nvml.operation_log().size()); ++i) {
    std::cout << "  " << nvml.operation_log()[i] << "\n";
  }
  if (nvml.operation_count() > 6) std::cout << "  ...\n";
  for (std::size_t g = 0; g < cluster.size(); ++g) {
    if (!cluster.gpu(g).empty()) std::cout << "  " << cluster.gpu(g).to_string() << "\n";
  }

  // Serve traffic.
  serving::ClusterSimulation sim(deployment, scenario.services, perf);
  serving::SimulationOptions options;
  options.duration_ms = duration_ms;
  const auto result = sim.run(options);

  std::cout << "\nserved " << duration_ms / 1000.0 << " s of traffic:\n";
  for (const auto& outcome : result.services) {
    std::cout << "  service " << outcome.service_id << ": " << outcome.requests
              << " requests, p50=" << (outcome.request_latency_ms.empty()
                                           ? 0.0
                                           : outcome.request_latency_ms.p50())
              << " ms, p99="
              << (outcome.request_latency_ms.empty() ? 0.0 : outcome.request_latency_ms.p99())
              << " ms, compliance=" << outcome.compliance() * 100 << "%\n";
  }
  std::cout << "\noverall SLO compliance:   " << result.overall_compliance() * 100 << "%"
            << "\nmeasured internal slack:  " << result.internal_slack * 100 << "%\n";

  // parva-audit: allow(R6) best-effort teardown at example exit; nothing to recover into
  (void)deployer.teardown(state.value());
  return 0;
}

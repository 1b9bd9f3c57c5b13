// SLO-change reconfiguration (paper Section III-F): a running S2 cluster
// receives a tightened SLO for InceptionV3. Only that service is
// re-configured and re-placed — no re-profiling, and untouched services
// keep their segments.
//
//   $ ./examples/slo_reconfiguration
#include <iostream>

#include "core/metrics.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"

int main() {
  using namespace parva;

  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  const auto profiles = profiler.profile_all(perfmodel::ModelCatalog::builtin().names());

  auto scenario = scenarios::scenario("S2");
  core::ParvaGpuScheduler scheduler(profiles);
  (void)scheduler.schedule(scenario.services).value();
  auto plan = scheduler.last_plan();
  auto configured = scheduler.last_configured();

  std::cout << "initial plan:  " << plan.to_string() << "\n";
  std::cout << "GPUs: " << plan.gpus_in_use() << ", GPCs: " << plan.total_allocated_gpcs()
            << "\n\n";

  // The client tightens InceptionV3's SLO from 419 ms to 150 ms.
  core::ServiceSpec updated = scenario.services[4];
  std::cout << "client update: " << updated.model << " SLO " << updated.slo_latency_ms
            << " ms -> 150 ms (rate unchanged at " << updated.request_rate << " req/s)\n\n";
  updated.slo_latency_ms = 150.0;

  core::Reconfigurer reconfigurer{core::SegmentConfigurator(), core::SegmentAllocator()};
  const auto stats = reconfigurer.update_service(plan, configured, updated, scheduler.surfaces());
  if (!stats.ok()) {
    std::cerr << "reconfiguration failed: " << stats.error().to_string() << "\n";
    return 1;
  }
  std::cout << "reconfiguration: removed " << stats.value().segments_removed
            << " segment(s), added " << stats.value().segments_added << ", left "
            << stats.value().segments_untouched << " other-service segment(s) in place\n";
  std::cout << "updated plan:  " << plan.to_string() << "\n";
  std::cout << "GPUs: " << plan.gpus_in_use() << ", GPCs: " << plan.total_allocated_gpcs()
            << "\n\n";

  // Verify the updated cluster still serves everything within SLO.
  scenario.services[4] = updated;
  auto deployment = core::ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
  for (auto& unit : deployment.units) {
    for (const auto& spec : scenario.services) {
      if (spec.id == unit.service_id) unit.model = spec.model;
    }
  }
  serving::ClusterSimulation sim(deployment, scenario.services, perf);
  serving::SimulationOptions options;
  options.duration_ms = 6'000.0;
  const auto result = sim.run(options);
  std::cout << "post-reconfiguration compliance: " << result.overall_compliance() * 100
            << "% (worst service " << result.worst_compliance() * 100 << "%)\n";
  return 0;
}

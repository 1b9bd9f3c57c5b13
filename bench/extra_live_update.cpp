// Extension (paper Section III-F future work): live reconfiguration with
// shadow processes. Applies a rate surge to one S2 service and compares
// the per-service unavailability of in-place vs shadowed updates on the
// simulated control plane.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "core/live_update.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"

int main() {
  using namespace parva;

  bench::banner("Extension", "Live reconfiguration: in-place vs shadow processes");

  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  const auto profiles = profiler.profile_all(perfmodel::ModelCatalog::builtin().names());

  TextTable table({"updated service", "strategy", "downtime_ms", "makespan_ms",
                   "shadows", "untouched"});
  const auto& scenario = scenarios::scenario("S2");
  for (const int target_service : {4 /*inceptionv3*/, 8 /*resnet-50*/}) {
    for (const auto strategy : {core::UpdateStrategy::kInPlace,
                                core::UpdateStrategy::kShadowed}) {
      core::ParvaGpuScheduler scheduler(profiles);
      const auto current = scheduler.schedule(scenario.services).value().deployment;
      auto plan = scheduler.last_plan();
      auto configured = scheduler.last_configured();

      gpu::GpuCluster cluster(8);
      gpu::NvmlSim nvml(cluster);
      core::Deployer deployer(nvml, perf);
      auto state = deployer.deploy(current).value();

      // The service's rate triples.
      core::ServiceSpec updated = scenario.services[static_cast<std::size_t>(target_service)];
      updated.request_rate *= 3.0;
      core::Reconfigurer reconfigurer{core::SegmentConfigurator(), core::SegmentAllocator()};
      if (!reconfigurer.update_service(plan, configured, updated, scheduler.surfaces()).ok()) {
        continue;
      }
      core::Deployment target = core::ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
      for (auto& unit : target.units) {
        for (const auto& spec : scenario.services) {
          if (spec.id == unit.service_id) unit.model = spec.model;
        }
      }

      core::LiveUpdater updater(deployer);
      const auto report = updater.apply(current, state, target, strategy);
      if (!report.ok()) continue;
      table.add_row({updated.model,
                     strategy == core::UpdateStrategy::kShadowed ? "shadowed" : "in-place",
                     format_double(report.value().worst_downtime_ms(), 0),
                     format_double(report.value().makespan_ms, 0),
                     std::to_string(report.value().shadow_units),
                     std::to_string(report.value().untouched_units)});
    }
  }
  bench::emit(table, "extra_live_update");

  std::cout << "Shadow processes eliminate the reconfiguration window entirely at the\n"
               "cost of temporary spare-GPU capacity — the trade the paper defers to\n"
               "future work.\n";
  return 0;
}

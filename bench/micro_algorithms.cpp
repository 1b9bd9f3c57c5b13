// google-benchmark microbenchmarks of the building blocks: MIG geometry
// enumeration, the Segment Configurator, the Segment Allocator stages, the
// end-to-end schedulers, deploying and repairing a fleet, the
// discrete-event simulator throughput, and its arrival scheduler.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "core/parvagpu.hpp"
#include "core/repair.hpp"
#include "gpu/mig_geometry.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/experiment.hpp"
#include "serving/cluster_sim.hpp"
#include "serving/shard_engine.hpp"

namespace {

using namespace parva;
using namespace parva::scenarios;

const ExperimentContext& context() {
  static const ExperimentContext ctx = ExperimentContext::create();
  return ctx;
}

void BM_MigEnumerateMaximalConfigs(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpu::enumerate_maximal_configs());
  }
}
BENCHMARK(BM_MigEnumerateMaximalConfigs);

void BM_ProfileOneModel(benchmark::State& state) {
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile("inceptionv3"));
  }
}
BENCHMARK(BM_ProfileOneModel);

// Optimal Triplet Decision against the indexed surfaces (one
// prefix-argmax lookup per instance size).
void BM_SegmentConfigurator(benchmark::State& state) {
  const auto& services = scenario("S6").services;
  core::SegmentConfigurator configurator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(configurator.configure(services, context().surfaces()));
  }
}
BENCHMARK(BM_SegmentConfigurator);

void BM_SegmentAllocator(benchmark::State& state) {
  const auto& services = scenario("S6").services;
  core::SegmentConfigurator configurator;
  auto configured = configurator.configure(services, context().surfaces()).value();
  core::SegmentAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(configured));
  }
}
BENCHMARK(BM_SegmentAllocator);

void BM_Scheduler(benchmark::State& state, Framework framework, const char* scenario_name) {
  const Scenario& sc = scenario(scenario_name);
  for (auto _ : state) {
    auto scheduler = context().make_scheduler(framework);
    benchmark::DoNotOptimize(scheduler->schedule(sc.services));
  }
}
BENCHMARK_CAPTURE(BM_Scheduler, parvagpu_s2, Framework::kParvaGpu, "S2");
BENCHMARK_CAPTURE(BM_Scheduler, parvagpu_s6, Framework::kParvaGpu, "S6");
BENCHMARK_CAPTURE(BM_Scheduler, gpulet_s6, Framework::kGpulet, "S6");
BENCHMARK_CAPTURE(BM_Scheduler, migserving_s2, Framework::kMigServing, "S2");

/// The ParvaGPU deployment of the S5 fleet folded `fold` times.
const core::Deployment& s5_deployment(int fold) {
  static std::map<int, core::Deployment> deployments;
  auto it = deployments.find(fold);
  if (it == deployments.end()) {
    const Scenario fleet = scale_scenario(scenario("S5"), fold);
    auto scheduler = context().make_scheduler(Framework::kParvaGpu);
    it = deployments.emplace(fold, scheduler->schedule(fleet.services).value().deployment).first;
  }
  return it->second;
}

/// A fresh simulated cluster with its control plane, deployer and repair
/// loop; rebuilt outside the timed region for every iteration.
struct FleetControlPlane {
  explicit FleetControlPlane(int gpus)
      : cluster(static_cast<std::size_t>(gpus)),
        nvml(cluster),
        deployer(nvml, context().perf()),
        updater(deployer),
        repairer(deployer, updater) {}

  gpu::GpuCluster cluster;
  gpu::NvmlSim nvml;
  core::Deployer deployer;
  core::LiveUpdater updater;
  core::RepairCoordinator repairer;
};

// The yardstick for a repair: Deployer::deploy of a whole S5 fold.
void BM_DeployFleet(benchmark::State& state) {
  const core::Deployment& fleet = s5_deployment(static_cast<int>(state.range(0)));
  std::unique_ptr<FleetControlPlane> plane;
  for (auto _ : state) {
    state.PauseTiming();
    plane = std::make_unique<FleetControlPlane>(fleet.gpu_count);
    state.ResumeTiming();
    benchmark::DoNotOptimize(plane->deployer.deploy(fleet));
  }
  state.counters["units"] = static_cast<double>(fleet.units.size());
}
BENCHMARK(BM_DeployFleet)->Arg(70)->Arg(300)->Unit(benchmark::kMillisecond);

// RepairCoordinator::handle_gpu_loss after the loss of the GPU that holds
// the fleet's first whole-GPU (7g) unit: one replacement on a standby GPU.
void BM_RepairOneGpu(benchmark::State& state) {
  const core::Deployment& fleet = s5_deployment(static_cast<int>(state.range(0)));
  int victim = 0;
  for (const core::DeployedUnit& unit : fleet.units) {
    if (unit.placement->gpcs == gpu::kGpcSlots) {
      victim = unit.gpu_index;
      break;
    }
  }
  std::unique_ptr<FleetControlPlane> plane;
  core::Deployment current;
  core::DeployedState deployed;
  for (auto _ : state) {
    state.PauseTiming();
    plane = std::make_unique<FleetControlPlane>(fleet.gpu_count);
    current = fleet;
    deployed = plane->deployer.deploy(fleet).value();
    const gpu::NvmlReturn lost = plane->nvml.fail_device(static_cast<unsigned>(victim));
    state.ResumeTiming();
    if (lost != gpu::NvmlReturn::kSuccess) {
      state.SkipWithError("fail_device refused the victim GPU");
      break;
    }
    benchmark::DoNotOptimize(plane->repairer.handle_gpu_loss(current, deployed, victim));
  }
  state.counters["units"] = static_cast<double>(fleet.units.size());
}
BENCHMARK(BM_RepairOneGpu)->Arg(70)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_ClusterSimulationS2(benchmark::State& state) {
  const Scenario& sc = scenario("S2");
  auto scheduler = context().make_scheduler(Framework::kParvaGpu);
  const auto schedule = scheduler->schedule(sc.services).value();
  serving::SimulationOptions options;
  options.duration_ms = 1'000.0;
  options.warmup_ms = 100.0;
  std::size_t events = 0;
  for (auto _ : state) {
    serving::ClusterSimulation sim(schedule.deployment, sc.services, context().perf());
    const serving::SimulationResult result = sim.run(options);
    events += result.events_processed;
    benchmark::DoNotOptimize(result);
  }
  state.counters["events/s"] = benchmark::Counter(static_cast<double>(events),
                                                  benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterSimulationS2)->Unit(benchmark::kMillisecond);

// One shard's arrival selection under the DES pattern: take the earliest
// pending service, then re-arm it one exponential gap later (retiring it
// first, as the engine does). The sizes are the per-shard service counts of
// a Table-IV fleet (11) and of S5 x70 / x150 over 4 shards (192, 413).
void BM_ArrivalStreams(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  constexpr std::size_t kGaps = 4096;  // drawn up front, outside the timing
  Rng rng(11);
  std::vector<double> gaps(kGaps);
  for (double& gap : gaps) gap = rng.exponential(1.0 / static_cast<double>(n));
  serving::ArrivalStreams streams(indices);
  for (std::size_t s = 0; s < n; ++s) streams.arm(s, gaps[s]);
  std::size_t step = 0;
  for (auto _ : state) {
    const std::size_t s = streams.earliest();
    const double now = streams.time(s);
    streams.retire(s);
    streams.arm(s, now + gaps[step++ % kGaps]);
  }
  benchmark::DoNotOptimize(streams.earliest());
}
BENCHMARK(BM_ArrivalStreams)->Arg(11)->Arg(192)->Arg(413);

}  // namespace

BENCHMARK_MAIN();

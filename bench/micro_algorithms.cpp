// google-benchmark microbenchmarks of the building blocks: MIG geometry
// enumeration, the Segment Configurator, the Segment Allocator stages,
// single-service updates on an LLM fleet and on S5 x150, the end-to-end
// schedulers (S5 x150 among them), deploying and repairing a fleet, and the
// discrete-event simulator: throughput, cost per event across fleet sizes,
// how much of a shard's time pooled execution adds, and what the telemetry
// flush adds to a replay.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "core/repair.hpp"
#include "gpu/mig_geometry.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/experiment.hpp"
#include "serving/cluster_sim.hpp"
#include "telemetry/telemetry.hpp"

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

/// Profiles of the LLM-extended catalog (the built-in models plus the
/// llama rows S7 serves), profiled once.
const profiler::ProfileSet& llm_profiles() {
  static const profiler::ProfileSet profiles = [] {
    perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
    profiler::Profiler profiler(perf);
    return profiler.profile_all(perfmodel::ModelCatalog::with_llm().names());
  }();
  return profiles;
}

const profiler::ProfileSurfaceSet& llm_surfaces() {
  static const profiler::ProfileSurfaceSet surfaces{llm_profiles()};
  return surfaces;
}

// Allocation Optimization (Alg. 2 stage 2) alone on the relocated plan of
// S7 folded x60 / x300 / x700 (300 / 1,500 / 3,500 LLM services). The plan
// is copied outside the timer. S7 leaves most GPUs light, so nearly every
// GPU is a candidate: time per fold should grow with the fold.
void BM_AllocationOptimizationS7Fold(benchmark::State& state) {
  const Scenario fleet = scale_scenario(llm_scenario(), static_cast<int>(state.range(0)));
  const auto configured =
      core::SegmentConfigurator().configure(fleet.services, llm_surfaces()).value();
  const core::SegmentAllocator allocator;
  const core::DeploymentPlan relocated = allocator.segment_relocation(configured).value();
  std::size_t gpus = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::DeploymentPlan plan = relocated;
    state.ResumeTiming();
    gpus = allocator.allocation_optimization(std::move(plan), configured).gpus_in_use();
    benchmark::DoNotOptimize(gpus);
  }
  state.counters["gpus_before"] = static_cast<double>(relocated.gpus_in_use());
  state.counters["gpus_after"] = static_cast<double>(gpus);
}
BENCHMARK(BM_AllocationOptimizationS7Fold)
    ->Arg(60)->Arg(300)->Arg(700)->Unit(benchmark::kMicrosecond);

/// A seeded stream of 200 SLO/rate changes to `services`, each relative to
/// the fleet's own spec (rate x U(0.7, 1.3) or SLO x U(1.0, 1.5)) so the
/// stream never drifts.
std::vector<core::ServiceSpec> update_stream(const std::vector<core::ServiceSpec>& services,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::ServiceSpec> updates;
  for (int u = 0; u < 200; ++u) {
    core::ServiceSpec spec =
        services[static_cast<std::size_t>(rng.uniform_int(0, services.size() - 1))];
    if (rng.next_double() < 0.5) {
      spec.request_rate *= rng.uniform(0.7, 1.3);
    } else {
      spec.slo_latency_ms *= rng.uniform(1.0, 1.5);
    }
    updates.push_back(std::move(spec));
  }
  return updates;
}

/// Reconfigurer::update_service (§III-F) on the plan `scheduler` made of
/// `services`, cycling through `updates`. Time is per update.
void run_updates(benchmark::State& state, core::ParvaGpuScheduler& scheduler,
                 const std::vector<core::ServiceSpec>& services,
                 const std::vector<core::ServiceSpec>& updates) {
  if (!scheduler.schedule(services).ok()) {
    state.SkipWithError("the fleet did not schedule");
    return;
  }
  core::DeploymentPlan plan = scheduler.last_plan();
  std::vector<core::ConfiguredService> configured = scheduler.last_configured();
  const core::Reconfigurer reconfigurer{core::SegmentConfigurator(), core::SegmentAllocator()};
  std::size_t next = 0;
  for (auto _ : state) {
    const auto stats = reconfigurer.update_service(plan, configured, updates[next],
                                                   scheduler.surfaces());
    if (!stats.ok()) {
      state.SkipWithError("update_service failed");
      break;
    }
    benchmark::DoNotOptimize(stats);
    next = (next + 1) % updates.size();
  }
  state.counters["gpus"] = static_cast<double>(plan.gpus_in_use());
}

// 200 SLO/rate updates on S7 x60 (300 LLM services).
void BM_UpdateServiceS7x60(benchmark::State& state) {
  const Scenario fleet = scale_scenario(llm_scenario(), 60);
  core::ParvaGpuScheduler scheduler(llm_profiles());
  run_updates(state, scheduler, fleet.services, update_stream(fleet.services, 60));
}
BENCHMARK(BM_UpdateServiceS7x60)->Unit(benchmark::kMicrosecond);

void BM_Scheduler(benchmark::State& state, Framework framework, const char* scenario_name) {
  const Scenario& sc = scenario(scenario_name);
  for (auto _ : state) {
    auto scheduler = context().make_scheduler(framework);
    benchmark::DoNotOptimize(scheduler->schedule(sc.services));
  }
}
BENCHMARK_CAPTURE(BM_Scheduler, parvagpu_s2, Framework::kParvaGpu, "S2");
BENCHMARK_CAPTURE(BM_Scheduler, parvagpu_s6, Framework::kParvaGpu, "S6");
BENCHMARK_CAPTURE(BM_Scheduler, gpulet_s5, Framework::kGpulet, "S5");
BENCHMARK_CAPTURE(BM_Scheduler, gpulet_s6, Framework::kGpulet, "S6");
BENCHMARK_CAPTURE(BM_Scheduler, igniter_s4, Framework::kIgniter, "S4");
BENCHMARK_CAPTURE(BM_Scheduler, migserving_s2, Framework::kMigServing, "S2");

/// The S5 fleet folded `fold` times.
const Scenario& s5_fleet(int fold) {
  static std::map<int, Scenario> fleets;
  auto it = fleets.find(fold);
  if (it == fleets.end()) it = fleets.emplace(fold, scale_scenario(scenario("S5"), fold)).first;
  return it->second;
}

/// The ParvaGPU deployment of the S5 fleet folded `fold` times.
const core::Deployment& s5_deployment(int fold) {
  static std::map<int, core::Deployment> deployments;
  auto it = deployments.find(fold);
  if (it == deployments.end()) {
    auto scheduler = context().make_scheduler(Framework::kParvaGpu);
    it = deployments
             .emplace(fold, scheduler->schedule(s5_fleet(fold).services).value().deployment)
             .first;
  }
  return it->second;
}

// ParvaGpuScheduler::schedule of S5 x150 (1,650 services, the parvabench
// fleet_plan fleet) on one scheduler: the full plan through the Deployment.
void BM_ScheduleS5x150(benchmark::State& state) {
  const Scenario& fleet = s5_fleet(150);
  core::ParvaGpuScheduler scheduler(context().profiles());
  for (auto _ : state) {
    auto result = scheduler.schedule(fleet.services);
    if (!result.ok()) {
      state.SkipWithError("S5 x150 did not schedule");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ScheduleS5x150)->Unit(benchmark::kMicrosecond);

// 200 SLO/rate updates on S5 x150, the same stream shape as S7 x60's.
void BM_UpdateServiceS5x150(benchmark::State& state) {
  const Scenario& fleet = s5_fleet(150);
  core::ParvaGpuScheduler scheduler(context().profiles());
  run_updates(state, scheduler, fleet.services, update_stream(fleet.services, 150));
}
BENCHMARK(BM_UpdateServiceS5x150)->Unit(benchmark::kMicrosecond);

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

/// The replay both S5 fold benchmarks below run: one second of Poisson
/// arrivals after a 100 ms warm-up.
serving::SimulationOptions s5_replay_options() {
  serving::SimulationOptions options;
  options.duration_ms = 1'000.0;
  options.warmup_ms = 100.0;
  options.arrivals = serving::ArrivalProcess::kPoisson;
  return options;
}

// Cost per event of a one-shard replay as the fleet grows: S5 folded x1
// (11 services), x70 (770) and x300 (3,300). Flat ns/event means the
// engine's per-event work does not grow with the number of services.
void BM_ClusterSimulationS5Fold(benchmark::State& state) {
  const int fold = static_cast<int>(state.range(0));
  serving::ClusterSimulation sim(s5_deployment(fold), s5_fleet(fold).services,
                                 context().perf());
  const serving::SimulationOptions options = s5_replay_options();
  double run_ns = 0.0;
  std::size_t events = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const serving::SimulationResult result = sim.run(options);
    run_ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                  .count();
    events += result.events_processed;
    benchmark::DoNotOptimize(result);
  }
  state.counters["events"] = static_cast<double>(events) / static_cast<double>(state.iterations());
  state.counters["ns/event"] = run_ns / static_cast<double>(events);
}
BENCHMARK(BM_ClusterSimulationS5Fold)->Arg(1)->Arg(70)->Arg(300)->Unit(benchmark::kMillisecond);

// What running shards concurrently costs each shard: S5 x70 over 4 shards,
// once on a 3-worker pool and once one shard after another, both timed per
// shard by the engine (shard_busy_ms). `pooled/serial` is the pooled busy
// sum over the serial one: 1.0 means the shards do not slow each other
// down; memory bandwidth, a busy host or two shards writing the same cache
// line push it up.
void BM_ShardPoolBusyRatio(benchmark::State& state) {
  serving::ClusterSimulation sim(s5_deployment(70), s5_fleet(70).services, context().perf());
  ThreadPool pool(3);
  serving::SimulationOptions serial = s5_replay_options();
  serial.shards = 4;
  serving::SimulationOptions pooled = serial;
  pooled.shard_pool = &pool;
  auto busy_sum = [&](const serving::SimulationOptions& options) {
    const serving::SimulationResult result = sim.run(options);
    return std::accumulate(result.shard_busy_ms.begin(), result.shard_busy_ms.end(), 0.0);
  };
  double pooled_ms = 0.0;
  double serial_ms = 0.0;
  for (auto _ : state) {
    pooled_ms += busy_sum(pooled);
    serial_ms += busy_sum(serial);
  }
  state.counters["pooled_busy_ms"] = pooled_ms / static_cast<double>(state.iterations());
  state.counters["serial_busy_ms"] = serial_ms / static_cast<double>(state.iterations());
  state.counters["pooled/serial"] = pooled_ms / serial_ms;
}
BENCHMARK(BM_ShardPoolBusyRatio)->Unit(benchmark::kMillisecond)->UseRealTime();

enum class TelemetrySink { kOff, kFresh, kAfterManyRegistries };

// What the end-of-run telemetry flush adds to a one-shard S5 x70 replay:
// with telemetry off, on with a fresh sink per run, and on after this
// thread has written once to 1,000 other registries, since destroyed. A
// write's cost must not grow with the registries a thread has touched, so
// the last two should read alike.
void BM_TelemetryFlush(benchmark::State& state, TelemetrySink sink) {
  if (sink == TelemetrySink::kAfterManyRegistries) {
    // Once per process, so repeated runs see exactly 1,000.
    static const bool touched = [] {
      for (int i = 0; i < 1'000; ++i) {
        telemetry::MetricsRegistry registry;
        registry.counter("touched_total").inc();
      }
      return true;
    }();
    benchmark::DoNotOptimize(touched);
  }
  serving::ClusterSimulation sim(s5_deployment(70), s5_fleet(70).services, context().perf());
  serving::SimulationOptions options = s5_replay_options();
  for (auto _ : state) {
    telemetry::Telemetry telemetry;
    options.telemetry = sink == TelemetrySink::kOff ? nullptr : &telemetry;
    benchmark::DoNotOptimize(sim.run(options));
  }
}
BENCHMARK_CAPTURE(BM_TelemetryFlush, off, TelemetrySink::kOff)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TelemetryFlush, fresh, TelemetrySink::kFresh)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TelemetryFlush, after_1000_registries, TelemetrySink::kAfterManyRegistries)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

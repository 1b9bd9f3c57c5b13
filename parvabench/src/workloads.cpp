#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "checks.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/allocator.hpp"
#include "core/configurator.hpp"
#include "core/deployer.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "core/repair.hpp"
#include "gpu/dcgm_sim.hpp"
#include "gpu/gpu_cluster.hpp"
#include "gpu/nvml_sim.hpp"
#include "inputs.hpp"
#include "perfmodel/model_catalog.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"

namespace parvabench {

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

namespace {

using namespace parva;
using core::ServiceSpec;

/// Probability that one instance creation fails transiently during deploy;
/// retries absorb it, so the deployment itself never changes.
constexpr double kTransientCreateFailureProb = 0.05;
/// Cap on reported violations per check, so a broken build stays readable.
constexpr std::size_t kMaxProblems = 20;

const perfmodel::AnalyticalPerfModel& perf_model() {
  static const perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
  return perf;
}

double percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  Samples samples;
  samples.reserve(values.size());
  for (const double v : values) samples.add(v);
  return samples.percentile(p);
}

double median(const std::vector<double>& values) { return percentile(values, 50.0); }

constexpr double kNotTimed = std::numeric_limits<double>::infinity();

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Library calls made and failed (the result's attempted/failed fields).
struct Ops {
  long attempted = 0;
  long failed = 0;
  bool count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

class Problems {
 public:
  explicit Problems(std::vector<std::string>& out) : out_(&out) {}
  void add(const std::string& problem) {
    if (out_->size() < kMaxProblems) out_->push_back(problem);
  }
  void add_all(const std::string& where, const std::vector<std::string>& problems) {
    for (const auto& p : problems) add(where + p);
  }
  bool any() const { return !out_->empty(); }

 private:
  std::vector<std::string>* out_;
};

/// Everything the timed phases start from. The first build is used; every
/// later round builds it again only to time it and check it reproduces.
struct SetUp {
  profiler::ProfileSet profiles;  // the scheduler points into it: SetUp never moves
  std::unique_ptr<core::ParvaGpuScheduler> scheduler;
  std::size_t grid_points = 0;
  Inputs inputs;
  /// Planned deployments, one per fleet (replay workloads plan in set-up).
  std::vector<core::Deployment> planned;
  // GPU loss (fleet_plan, fleet_replay), deploy and repair (fleet_replay).
  gpu::FaultPlan fault_plan;
  core::Deployment repaired;  ///< planned + dormant replacement units
  std::vector<serving::UnitActivation> activations;
  double recovered_at_ms = 0.0;
  core::DeployStats deploy_stats;
  int replaced_units = 0;
  double recovery_sim_ms = 0.0;
  std::string failure_note;
  std::string digest;  ///< deterministic text of everything above
};

template <typename F>
auto traced(Tracer& tracer, std::string_view name, F&& fn) {
  Tracer::Span span(tracer, name);
  return fn();
}

/// The GPU the replay loses. Candidates are the GPUs that host every unit
/// of at least one service in `eligible`, so the loss always takes a
/// service down (its requests are shed until a repair lands) rather than
/// only slowing it.
/// Among them, the seeded draw picks from the most common segment mix, so
/// every seed loses the same kind of GPU and the failure's cost stays
/// comparable across seeds; only its place in the fleet moves.
int pick_lost_gpu(const core::Deployment& planned, const std::set<int>& eligible, double draw,
                  std::string* note) {
  const auto gpu_count = static_cast<std::size_t>(planned.gpu_count);
  std::vector<std::vector<std::string>> mix(gpu_count);
  std::map<int, std::set<int>> gpus_of_service;
  for (const core::DeployedUnit& unit : planned.units) {
    mix[static_cast<std::size_t>(unit.gpu_index)].push_back(
        unit.model + ":" + std::to_string(unit.placement->gpcs) + "@" +
        std::to_string(unit.placement->start_slot) + "/" + std::to_string(unit.batch) + "/" +
        std::to_string(unit.procs));
    gpus_of_service[unit.service_id].insert(unit.gpu_index);
  }
  std::vector<bool> sole_host(gpu_count, false);
  for (const auto& [service, gpus] : gpus_of_service) {
    if (gpus.size() == 1 && eligible.count(service) != 0) sole_host[static_cast<std::size_t>(*gpus.begin())] = true;
  }
  const bool any_sole = std::find(sole_host.begin(), sole_host.end(), true) != sole_host.end();
  std::map<std::vector<std::string>, std::vector<int>> groups;
  for (std::size_t g = 0; g < gpu_count; ++g) {
    if (any_sole && !sole_host[g]) continue;
    std::sort(mix[g].begin(), mix[g].end());
    groups[mix[g]].push_back(static_cast<int>(g));
  }
  const std::vector<int>* largest = nullptr;
  for (const auto& [key, gpus] : groups) {
    if (largest == nullptr || gpus.size() > largest->size() ||
        (gpus.size() == largest->size() && gpus.front() < largest->front())) {
      largest = &gpus;
    }
  }
  const auto index = static_cast<std::size_t>(draw * static_cast<double>(largest->size()));
  const int lost = (*largest)[std::min(index, largest->size() - 1)];
  *note = "lost GPU " + std::to_string(lost) + " of " + std::to_string(largest->size()) +
          " candidates with mix";
  for (const std::string& segment : mix[static_cast<std::size_t>(lost)]) *note += " " + segment;
  return lost;
}

gpu::GpuFailureEvent scheduled_failure(const core::Deployment& deployment,
                                       const std::set<int>& eligible,
                                       const WorkloadConfig& config, double draw,
                                       std::string* note) {
  gpu::GpuFailureEvent failure;
  failure.at_ms = config.failure_at * (config.replay_warmup_ms + config.replay_duration_ms);
  failure.gpu_index = pick_lost_gpu(deployment, eligible, draw, note);
  return failure;
}

void deploy_and_repair(SetUp& s, const WorkloadConfig& config, std::uint64_t seed,
                       Tracer& tracer, Ops& ops, Problems& problems) {
  const core::Deployment& planned = s.planned.front();
  s.fault_plan = gpu::FaultPlan{};
  s.fault_plan.seed = seed;
  s.fault_plan.transient_create_failure_prob = kTransientCreateFailureProb;
  std::set<int> every_service;
  for (const ServiceSpec& spec : s.inputs.fleets.front().services) every_service.insert(spec.id);
  const gpu::GpuFailureEvent failure =
      scheduled_failure(planned, every_service, config, s.inputs.lost_gpu_draw, &s.failure_note);
  s.fault_plan.gpu_failures = {failure};

  gpu::GpuCluster cluster(static_cast<std::size_t>(planned.gpu_count));
  gpu::NvmlSim nvml(cluster);
  gpu::DcgmSim dcgm;
  gpu::FaultInjector injector(s.fault_plan);
  nvml.set_fault_injector(&injector);
  nvml.attach_health_monitor(&dcgm);
  core::Deployer deployer(nvml, perf_model());
  auto state = traced(tracer, "deployer.deploy", [&] { return deployer.deploy(planned); });
  if (!ops.count(state.ok())) {
    problems.add("deploy failed: " + state.error().to_string());
    return;
  }
  s.deploy_stats = deployer.last_deploy_stats();
  if (s.deploy_stats.fallback_placements != 0) {
    problems.add("transient create failures moved " +
                 std::to_string(s.deploy_stats.fallback_placements) + " unit(s)");
  }

  nvml.set_time_ms(failure.at_ms);
  if (nvml.fail_device(static_cast<unsigned>(failure.gpu_index), failure.xid) !=
      gpu::NvmlReturn::kSuccess) {
    problems.add("could not fail GPU " + std::to_string(failure.gpu_index));
    return;
  }
  core::LiveUpdater updater(deployer);
  core::RepairCoordinator repairer(deployer, updater);
  core::Deployment current = planned;
  auto repaired = traced(tracer, "repair.handle_gpu_loss", [&] {
    return repairer.handle_gpu_loss(current, state.value(), failure.gpu_index);
  });
  if (!ops.count(repaired.ok())) {
    problems.add("repair failed: " + repaired.error().to_string());
    return;
  }
  const core::RepairReport& report = repaired.value();
  s.recovered_at_ms = failure.at_ms + report.recovery_ms;
  s.repaired = planned;
  for (const core::DeployedUnit& unit : report.replacements) {
    s.activations.push_back({s.repaired.units.size(), s.recovered_at_ms});
    s.repaired.units.push_back(unit);
  }
  s.repaired.gpu_count = report.deployment.gpu_count;
  s.replaced_units = report.replaced_units;
  s.recovery_sim_ms = report.recovery_ms;
  for (const ServiceSpec& spec : s.inputs.fleets.front().services) {
    if (report.deployment.service_capacity(spec.id) < spec.request_rate * (1.0 - 1e-9)) {
      problems.add("after repair, service " + std::to_string(spec.id) + " is below its rate");
    }
  }
  s.digest += "lost=" + std::to_string(failure.gpu_index) +
              " replaced=" + std::to_string(report.replaced_units) +
              " recovery_ms=" + std::to_string(report.recovery_ms) + "\n";
}

std::unique_ptr<SetUp> set_up(const WorkloadConfig& config, std::uint64_t seed, Tracer& tracer,
                              Ops& ops, Problems& problems) {
  auto s = std::make_unique<SetUp>();
  const profiler::Profiler profiler(perf_model());
  s->profiles = traced(tracer, "profiler.profile_all", [&] {
    return profiler.profile_all(perfmodel::ModelCatalog::with_llm().names());
  });
  for (const auto& table : s->profiles.tables()) s->grid_points += table.size();
  s->scheduler = traced(tracer, "profiler.surface_index", [&] {
    return std::make_unique<core::ParvaGpuScheduler>(s->profiles);
  });

  s->inputs = generate_inputs(config, seed);
  problems.add_all("input ", validate_inputs(s->inputs, s->scheduler->surfaces()));
  s->digest = inputs_to_string(s->inputs);
  if (problems.any() || !config.plan_in_setup) return s;

  for (const Fleet& fleet : s->inputs.fleets) {
    auto planned = traced(tracer, "parvagpu.schedule:" + fleet.name,
                          [&] { return s->scheduler->schedule(fleet.services); });
    if (!ops.count(planned.ok())) {
      problems.add(fleet.name + ": planning failed: " + planned.error().to_string());
      return s;
    }
    s->planned.push_back(std::move(planned).value().deployment);
    s->digest += s->scheduler->last_plan().to_string() + "\n";
  }
  if (config.deploy_and_repair) deploy_and_repair(*s, config, seed, tracer, ops, problems);
  return s;
}

/// One fleet's plan from the first schedule() call of the plan phase.
struct FleetPlan {
  core::DeploymentPlan plan;
  std::vector<core::ConfiguredService> configured;
  core::Deployment deployment;
  std::string text;  ///< DeploymentPlan::to_string
};

struct StagedCounts {
  double segments = 0.0;
  double opt_candidate_gpus = 0.0;
  double opt_gpus_saved = 0.0;
};

/// Algorithm 1 and 2 stage by stage through the public API; the plan must
/// equal what schedule() produced for the same services.
StagedCounts staged_plan(const Fleet& fleet, const FleetPlan& reference,
                         const profiler::ProfileSurfaceSet& surfaces, Tracer& tracer, Ops& ops,
                         Problems& problems) {
  // Default-constructed stages use the same options as a default
  // ParvaGpuScheduler, whose plan they must reproduce.
  const core::SegmentConfigurator configurator;
  const core::SegmentAllocator allocator;
  StagedCounts counts;

  auto configured = traced(tracer, "configurator.configure:" + fleet.name,
                           [&] { return configurator.configure(fleet.services, surfaces); });
  if (!ops.count(configured.ok())) {
    problems.add(fleet.name + ": staged configure failed");
    return counts;
  }
  auto relocated = traced(tracer, "allocator.segment_relocation:" + fleet.name,
                          [&] { return allocator.segment_relocation(configured.value()); });
  if (!ops.count(relocated.ok())) {
    problems.add(fleet.name + ": staged relocation failed");
    return counts;
  }
  for (const auto& gpu : relocated.value().gpus()) {
    const int gpcs = gpu.allocated_gpcs();
    if (gpcs > 0 && gpcs <= allocator.options().optimization_threshold_gpcs) {
      ++counts.opt_candidate_gpus;
    }
  }
  const auto relocated_gpus = static_cast<double>(relocated.value().gpus_in_use());
  const core::DeploymentPlan optimized =
      traced(tracer, "allocator.allocation_optimization:" + fleet.name, [&] {
        return allocator.allocation_optimization(std::move(relocated).value(),
                                                 configured.value());
      });
  const core::Deployment deployment = traced(tracer, "parvagpu.to_deployment:" + fleet.name, [&] {
    return core::ParvaGpuScheduler::to_deployment(optimized, "ParvaGPU");
  });
  counts.segments = static_cast<double>(deployment.units.size());
  counts.opt_gpus_saved = relocated_gpus - static_cast<double>(optimized.gpus_in_use());
  if (optimized.to_string() != reference.text ||
      deployment.gpu_count != reference.deployment.gpu_count ||
      deployment.units.size() != reference.deployment.units.size()) {
    problems.add(fleet.name + ": stage-by-stage plan differs from schedule()");
  }
  return counts;
}

/// Replay inputs for one fleet.
struct Replay {
  std::string name;
  const core::Deployment* deployment = nullptr;
  std::vector<ServiceSpec> services;
  serving::SimulationOptions options;
  bool streaming = false;
};

/// Deterministic outcome of a fleet's first replay.
struct ReplayFacts {
  std::string signature;
  double events = 0.0;
  double requests = 0.0;
  double batches = 0.0;
  double tokens = 0.0;
  double rejected = 0.0;
  double evicted = 0.0;
  double kv_peak = 0.0;
};

ReplayFacts facts_of(const serving::SimulationResult& result) {
  ReplayFacts facts;
  facts.signature = replay_signature(result);
  facts.events = static_cast<double>(result.events_processed);
  for (const auto& s : result.services) {
    facts.requests += static_cast<double>(s.requests);
    facts.batches += static_cast<double>(s.batches);
  }
  facts.tokens = static_cast<double>(result.generated_tokens);
  facts.rejected = static_cast<double>(result.requests_rejected);
  facts.evicted = static_cast<double>(result.requests_evicted);
  for (const double peak : result.unit_kv_peak) facts.kv_peak = std::max(facts.kv_peak, peak);
  return facts;
}

struct TimedReplay {
  serving::SimulationResult result;
  double wall_ms = 0.0;
  bool ok = false;
};

TimedReplay run_replay(const Replay& replay, int shards, ThreadPool* pool, Tracer& tracer,
                       std::string_view span_prefix, Ops& ops, Problems& problems,
                       double duration_ms = 0.0) {
  serving::SimulationOptions options = replay.options;
  options.shards = shards;
  options.shard_pool = shards > 1 ? pool : nullptr;
  if (duration_ms > 0.0) {
    options.warmup_ms = 0.0;
    options.duration_ms = duration_ms;
  }
  const serving::ClusterSimulation sim(*replay.deployment, replay.services, perf_model());
  TimedReplay out;
  const auto start = Clock::now();
  try {
    Tracer::Span span(tracer, std::string(span_prefix) + ":" + replay.name);
    out.result = sim.run(options);
    out.ok = true;
  } catch (const std::exception& e) {
    problems.add(replay.name + ": replay failed: " + e.what());
  }
  out.wall_ms = ms_between(start, Clock::now());
  out.ok = out.ok && (duration_ms > 0.0 || out.result.events_processed > 0);
  ops.count(out.ok);
  return out;
}

/// Replay inputs per fleet: fleet_plan replays its churned plans (losing
/// one GPU the update stream left alone), fleet_replay its deployed and
/// repaired fleet, scenario_replay the plans made in set-up.
std::vector<Replay> build_replays(const WorkloadConfig& config, SetUp& s, std::uint64_t seed,
                                  const std::vector<core::DeploymentPlan>& churned_plans,
                                  const std::vector<std::vector<ServiceSpec>>& churned_specs,
                                  std::vector<core::Deployment>& churned) {
  const Inputs& inputs = s.inputs;
  const std::size_t fleet_count = inputs.fleets.size();
  std::vector<Replay> replays;
  for (std::size_t f = 0; f < fleet_count; ++f) {
    Replay r;
    r.name = inputs.fleets[f].name;
    r.streaming = inputs.fleets[f].streaming;
    r.options.seed = seed;
    r.options.warmup_ms = config.replay_warmup_ms;
    r.options.duration_ms = config.replay_duration_ms;
    r.options.arrivals = r.streaming          ? serving::ArrivalProcess::kBursty
                         : config.paced_replay ? serving::ArrivalProcess::kDeterministic
                                               : serving::ArrivalProcess::kPoisson;
    if (r.streaming) r.options.llm.admission = serving::LlmAdmissionPolicy::kEvict;
    replays.push_back(std::move(r));
  }
  if (!config.plan_in_setup) {
    churned.clear();
    churned.reserve(fleet_count);  // replays point into it
    for (std::size_t f = 0; f < fleet_count; ++f) {
      core::Deployment d = core::ParvaGpuScheduler::to_deployment(churned_plans[f], "ParvaGPU");
      for (core::DeployedUnit& unit : d.units) {
        for (const ServiceSpec& spec : churned_specs[f]) {
          if (spec.id == unit.service_id) unit.model = spec.model;
        }
      }
      churned.push_back(std::move(d));
      replays[f].deployment = &churned.back();
      replays[f].services = churned_specs[f];
    }
    if (config.lose_gpu_in_replay) {
      // Only services the update stream left alone may go down, so the
      // outage's size depends on the seed's rate jitter, not on the churn.
      std::set<int> untouched;
      for (const ServiceSpec& spec : inputs.fleets.front().services) untouched.insert(spec.id);
      for (const Update& update : inputs.updates) untouched.erase(update.spec.id);
      s.fault_plan.gpu_failures = {scheduled_failure(churned.front(), untouched, config,
                                                     inputs.lost_gpu_draw, &s.failure_note)};
      replays[0].options.fault_plan = &s.fault_plan;
    }
  } else if (config.deploy_and_repair) {
    replays[0].deployment = &s.repaired;
    replays[0].services = inputs.fleets[0].services;
    replays[0].options.fault_plan = &s.fault_plan;
    replays[0].options.activations = s.activations;
    replays[0].options.recovered_at_ms = s.recovered_at_ms;
  } else {
    for (std::size_t f = 0; f < fleet_count; ++f) {
      replays[f].deployment = &s.planned[f];
      replays[f].services = inputs.fleets[f].services;
    }
  }
  return replays;
}

/// Per-rep sums of the spans `prefix:<fleet>` across fleets, then the median.
double median_rep_sum(const Tracer& tracer, const std::string& prefix,
                      const std::vector<std::string>& fleets) {
  std::vector<double> sums;
  for (const std::string& fleet : fleets) {
    const std::vector<double> durations = tracer.durations(prefix + ":" + fleet);
    if (sums.empty()) sums.assign(durations.size(), 0.0);
    const std::size_t n = std::min(sums.size(), durations.size());
    sums.resize(n);
    for (std::size_t i = 0; i < n; ++i) sums[i] += durations[i];
  }
  return median(sums);
}

/// A fixed serial replay (Table-IV S2 as the paper lists it, 20 s simulated,
/// Poisson arrivals, one shard) that no seed changes: its wall time tracks
/// the machine's own speed, and concurrent copies of it measure how much
/// parallelism the machine delivers.
class ReferenceReplay {
 public:
  explicit ReferenceReplay(Ops& ops) {
    const profiler::Profiler profiler(perf_model());
    core::ParvaGpuScheduler scheduler(
        profiler.profile_all(perfmodel::ModelCatalog::builtin().names()));
    auto planned = scheduler.schedule(services());
    if (ops.count(planned.ok())) deployment_ = std::move(planned).value().deployment;
    options_.arrivals = serving::ArrivalProcess::kPoisson;
    options_.warmup_ms = 1000.0;
    options_.duration_ms = 20000.0;
  }

  /// Events processed; 0 when the replay failed.
  std::size_t run() const {
    try {
      const serving::ClusterSimulation sim(deployment_, services(), perf_model());
      return sim.run(options_).events_processed;
    } catch (const std::exception&) {
      return 0;
    }
  }

  /// Wall time of one run; the run is counted in `ops`.
  double time_ms(Ops& ops) const {
    const auto start = Clock::now();
    ops.count(run() > 0);
    return ms_between(start, Clock::now());
  }

 private:
  static const std::vector<ServiceSpec>& services() {
    return scenarios::scenario("S2").services;
  }

  core::Deployment deployment_;
  serving::SimulationOptions options_;
};

/// `cpus` concurrent copies of the reference replay against one copy alone.
/// `serial_ms` receives the median time of one copy alone.
double box_parallel_capacity(const ReferenceReplay& reference, int cpus, Ops& ops,
                             double* serial_ms) {
  std::vector<double> alone;
  for (int i = 0; i < 3; ++i) alone.push_back(reference.time_ms(ops));
  std::vector<double> together;
  for (int i = 0; i < 2; ++i) {
    std::vector<std::size_t> events(static_cast<std::size_t>(cpus), 0);
    const auto start = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < cpus; ++t) {
        threads.emplace_back(
            [&events, &reference, t] { events[static_cast<std::size_t>(t)] = reference.run(); });
      }
    }
    together.push_back(ms_between(start, Clock::now()));
    for (const std::size_t e : events) ops.count(e > 0);
  }
  *serial_ms = median(alone);
  return static_cast<double>(cpus) * median(alone) / median(together);
}

}  // namespace

RunReport run_workload(const RunOptions& run) {
  RunReport report;
  Problems problems(report.problems);
  Ops ops;
  auto finish = [&] {
    report.attempted = std::max(1L, ops.attempted);
    report.failed = ops.failed + (ops.attempted == 0 ? 1 : 0);
    return report;
  };
  WorkloadConfig config;
  if (!workload_config(run.workload, run.smoke, &config)) {
    problems.add("unknown workload " + run.workload);
    return finish();
  }
  Tracer tracer(run.trace);
  const int cpus = available_cpus();

  // ----- Set-up: profile, index surfaces, generate and validate inputs;
  // replay workloads also plan, deploy and repair. The first set-up counts
  // from process start; every later round builds it once more, so set-up
  // time is sampled across the whole run like every other metric.
  std::vector<double> setup_s;
  const std::unique_ptr<SetUp> s = set_up(config, run.seed, tracer, ops, problems);
  setup_s.push_back(ms_between(run.process_start, Clock::now()) / 1000.0);
  if (problems.any()) return finish();
  const Inputs& inputs = s->inputs;
  const auto& surfaces = s->scheduler->surfaces();
  report.inputs_digest = hex64(fnv1a(inputs_to_string(inputs)));
  std::uint64_t digest = fnv1a(s->digest);
  std::vector<std::string> fleet_names;
  for (const Fleet& fleet : inputs.fleets) fleet_names.push_back(fleet.name);
  const std::size_t fleet_count = inputs.fleets.size();

  std::vector<FleetPlan> base(fleet_count);
  std::vector<double> plan_fastest_ms(fleet_count, kNotTimed);  // per fleet
  std::vector<double> reported_ms;  // per rep, summed over fleets
  std::vector<double> untimed_ms;   // per rep, summed over fleets
  StagedCounts staged;

  const core::Reconfigurer reconfigurer{core::SegmentConfigurator(), core::SegmentAllocator()};
  core::ReconfigureStats churn;
  double reconfig_failed = 0.0;
  std::vector<double> update_fastest_ms(inputs.updates.size(), kNotTimed);  // per update
  double gpus_after_churn = 0.0;
  std::string churned_text;
  std::vector<core::DeploymentPlan> churned_plans;
  std::vector<std::vector<ServiceSpec>> churned_specs;

  std::vector<core::Deployment> churned;  // fleet_plan replays its churned plans
  std::vector<Replay> replays;
  // Shards share one pool; the calling thread participates in every
  // window, so nproc shards use nproc threads in total.
  std::unique_ptr<ThreadPool> pool;
  if (cpus > 1 && (config.sharded_replay || run.trace)) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(cpus - 1));
  }
  const int shards = config.sharded_replay ? cpus : 1;
  std::vector<ReplayFacts> facts(fleet_count);
  ServingTotals totals;
  std::vector<double> replay_fastest_ms(fleet_count, kNotTimed);  // per fleet
  std::vector<double> completed(fleet_count, 0.0);                // per fleet, per replay

  // The machine's speed drifts on a shared host; timing the same fixed
  // replay before and after the rounds shows by how much during this run.
  const ReferenceReplay reference(ops);
  const double reference_before_ms = reference.time_ms(ops);

  // ----- Rounds until the deadline. Each round repeats every timed call
  // (set-up, plans, passes over the update stream, one replay per fleet)
  // on the same inputs, and each distinct call keeps its fastest repeat.
  // On a shared machine, slow spells last from milliseconds to minutes and
  // only ever add time (the same code then runs 1.4-2x slower), so the
  // fastest repeat is the call's own cost, while a median over the run
  // would follow how much of the run such a spell covered.
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(run.seconds));
  int rounds = 0;
  for (; rounds < config.min_rounds || Clock::now() < deadline; ++rounds) {
    if (rounds > 0) {
      const auto start = Clock::now();
      const std::unique_ptr<SetUp> again = set_up(config, run.seed, tracer, ops, problems);
      setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
      if (again->digest != s->digest) problems.add("set-up is not deterministic");
    }

    // Full plans through ParvaGpuScheduler::schedule.
    for (int rep = 0; rep < config.plans_per_round; ++rep) {
      const bool first = rounds == 0 && rep == 0;
      double reported = 0.0;
      double untimed = 0.0;
      for (std::size_t f = 0; f < fleet_count; ++f) {
        const Fleet& fleet = inputs.fleets[f];
        const auto start = Clock::now();
        auto result = traced(tracer, "parvagpu.schedule:" + fleet.name,
                             [&] { return s->scheduler->schedule(fleet.services); });
        const double ms = ms_between(start, Clock::now());
        if (!ops.count(result.ok())) {
          problems.add(fleet.name + ": planning failed: " + result.error().to_string());
          return finish();
        }
        plan_fastest_ms[f] = std::min(plan_fastest_ms[f], ms);
        reported += result.value().scheduling_delay_ms;
        untimed += ms - result.value().scheduling_delay_ms;
        if (first) {
          FleetPlan& fp = base[f];
          fp.plan = s->scheduler->last_plan();
          fp.configured = s->scheduler->last_configured();
          fp.deployment = std::move(result).value().deployment;
          fp.text = fp.plan.to_string();
          problems.add_all(fleet.name + " plan: ", check_plan(fp.plan));
          problems.add_all(fleet.name + " plan: ", check_capacity(fp.plan, fleet.services));
          digest = fnv1a(fp.text, digest);
        } else if (s->scheduler->last_plan().to_string() != base[f].text) {
          problems.add(fleet.name + ": repeated plan differs");
        }
        if (first || run.trace) {
          const StagedCounts counts = staged_plan(fleet, base[f], surfaces, tracer, ops, problems);
          if (first) {
            staged.segments += counts.segments;
            staged.opt_candidate_gpus += counts.opt_candidate_gpus;
            staged.opt_gpus_saved += counts.opt_gpus_saved;
          }
        }
      }
      reported_ms.push_back(reported);
      untimed_ms.push_back(untimed);
    }

    // Passes over the seeded SLO/rate stream through update_service, each
    // starting from the first plans. The first pass checks the plan after
    // every update; later passes must end in the same plans. The traced run
    // makes one pass per round: no per-layer metric times single updates.
    const int passes = run.trace ? 1 : config.update_passes_per_round;
    for (int pass = 0; pass < passes; ++pass) {
      const bool first_pass = rounds == 0 && pass == 0;
      std::vector<core::DeploymentPlan> plans;
      std::vector<std::vector<core::ConfiguredService>> configured;
      std::vector<std::vector<ServiceSpec>> specs;
      for (std::size_t f = 0; f < fleet_count; ++f) {
        plans.push_back(base[f].plan);
        configured.push_back(base[f].configured);
        specs.push_back(inputs.fleets[f].services);
      }
      for (std::size_t u = 0; u < inputs.updates.size(); ++u) {
        const Update& update = inputs.updates[u];
        const std::size_t f = update.fleet;
        const auto start = Clock::now();
        auto stats = traced(tracer, "reconfigure.update_service", [&] {
          return reconfigurer.update_service(plans[f], configured[f], update.spec, surfaces);
        });
        update_fastest_ms[u] = std::min(update_fastest_ms[u], ms_between(start, Clock::now()));
        if (!ops.count(stats.ok())) {
          if (first_pass) ++reconfig_failed;
          problems.add("update of service " + std::to_string(update.spec.id) + " failed");
          continue;
        }
        if (!first_pass) continue;
        churn.segments_removed += stats.value().segments_removed;
        churn.segments_added += stats.value().segments_added;
        churn.segments_untouched += stats.value().segments_untouched;
        for (ServiceSpec& spec : specs[f]) {
          if (spec.id == update.spec.id) spec = update.spec;
        }
        problems.add_all(fleet_names[f] + " after update: ", check_plan(plans[f]));
        problems.add_all(fleet_names[f] + " after update: ", check_capacity(plans[f], specs[f]));
      }
      std::string text;
      for (const core::DeploymentPlan& plan : plans) text += plan.to_string() + "\n";
      if (first_pass) {
        churned_text = text;
        digest = fnv1a(text, digest);
        for (const core::DeploymentPlan& plan : plans) {
          gpus_after_churn += static_cast<double>(plan.gpus_in_use());
        }
        churned_plans = std::move(plans);
        churned_specs = std::move(specs);
      } else if (text != churned_text) {
        problems.add("repeated update pass ends in a different plan");
      }
    }

    if (replays.empty()) {
      replays = build_replays(config, *s, run.seed, churned_plans, churned_specs, churned);
    }
    // One replay of every fleet.
    for (std::size_t f = 0; f < fleet_count; ++f) {
      TimedReplay t =
          run_replay(replays[f], shards, pool.get(), tracer, "cluster_sim.run", ops, problems);
      if (!t.ok) return finish();
      replay_fastest_ms[f] = std::min(replay_fastest_ms[f], t.wall_ms);
      if (rounds == 0) {
        for (const auto& outcome : t.result.services) {
          completed[f] += static_cast<double>(outcome.requests);
        }
        facts[f] = facts_of(t.result);
        totals.add(t.result, replays[f].services);
        ServingTotals fleet_totals;
        fleet_totals.add(t.result, replays[f].services);
        report.notes.push_back(replays[f].name + ": miss fraction " +
                               std::to_string(fleet_totals.miss_frac()) + " of " +
                               std::to_string(fleet_totals.offered) + " offered, p99/SLO max " +
                               std::to_string(fleet_totals.p99_over_slo_max));
        digest = fnv1a(replay_counts(t.result), digest);
      } else if (replay_signature(t.result) != facts[f].signature) {
        problems.add(replays[f].name + ": repeated replay differs");
      }
    }
  }
  report.output_digest = hex64(digest);
  report.notes.push_back("box speed: reference S2 replay " + std::to_string(reference_before_ms) +
                         " ms before the rounds, " + std::to_string(reference.time_ms(ops)) +
                         " ms after");
  if (!s->failure_note.empty()) report.notes.push_back(s->failure_note);
  report.notes.push_back("served: " + std::to_string(totals.offered) + " offered, " +
                         std::to_string(totals.completed) + " completed, " +
                         std::to_string(totals.late) + " late, " +
                         std::to_string(totals.offered - totals.completed) + " lost");

  double gpus = 0.0;
  for (const FleetPlan& fp : base) gpus += static_cast<double>(fp.deployment.gpu_count);
  report.notes.push_back("workload " + config.name + ": " + std::to_string(rounds) +
                         " rounds of " + std::to_string(config.plans_per_round) + " x " +
                         std::to_string(fleet_count) + " plan(s), " +
                         std::to_string(inputs.updates.size()) + " updates and " +
                         std::to_string(fleet_count) + " replay(s) on " + std::to_string(shards) +
                         " shard(s)");

  if (!run.trace) {
    auto& m = report.metrics;
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"plan_ms_p50", median(plan_fastest_ms), "ms"});
    m.push_back({"reconfig_ms_p50", percentile(update_fastest_ms, 50.0), "ms"});
    m.push_back({"reconfig_ms_p99", percentile(update_fastest_ms, 99.0), "ms"});
    m.push_back({"gpus", gpus, "count"});
    m.push_back({"gpus_after_churn", gpus_after_churn, "count"});
    m.push_back({"replay_req_per_s", sorted_sum(completed) / (sorted_sum(replay_fastest_ms) / 1000.0), "req/s"});
    m.push_back({"slo_compliance", totals.compliance(), "fraction"});
    m.push_back({"req_miss_frac", totals.miss_frac(), "fraction"});
    m.push_back({"p99_over_slo_max", totals.p99_over_slo_max, "ratio"});
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    return finish();
  }

  // ----- Traced run only: per-layer extras.
  // Zero-horizon runs: construction, partition and merge.
  for (int rep = 0; rep < 3; ++rep) {
    for (const Replay& replay : replays) {
      run_replay(replay, shards, pool.get(), tracer, "cluster_sim.run_fixed", ops, problems, 1e-3);
    }
  }
  // nproc shards against one shard, same input: every count must match.
  double busy_max = 0.0, busy_sum = 0.0, busy_mean_sum = 0.0;
  double serial_busy = 0.0, serial_wall = 0.0, sharded_wall = 0.0;
  for (const Replay& replay : replays) {
    const TimedReplay one = run_replay(replay, 1, nullptr, tracer, "cluster_sim.run_1shard", ops, problems);
    const TimedReplay many = run_replay(replay, cpus, pool.get(), tracer, "cluster_sim.run_nshard", ops, problems);
    if (!one.ok || !many.ok) continue;
    if (replay_signature(one.result) != replay_signature(many.result)) {
      problems.add(replay.name + ": " + std::to_string(cpus) + "-shard replay differs from 1 shard");
    }
    double fleet_max = 0.0, fleet_sum = 0.0;
    for (const double busy : many.result.shard_busy_ms) {
      fleet_max = std::max(fleet_max, busy);
      fleet_sum += busy;
    }
    busy_max += fleet_max;
    busy_sum += fleet_sum;
    busy_mean_sum += fleet_sum / static_cast<double>(many.result.shard_busy_ms.size());
    for (const double busy : one.result.shard_busy_ms) serial_busy += busy;
    serial_wall += one.wall_ms;
    sharded_wall += many.wall_ms;
  }
  // Tracing overhead: the same plan and replay work, spans off then on.
  std::vector<double> untraced_probe, traced_probe;
  for (int rep = 0; rep < 2; ++rep) {
    for (const bool on : {false, true}) {
      tracer.set_enabled(on);
      const auto start = Clock::now();
      for (const Fleet& fleet : inputs.fleets) {
        auto r = traced(tracer, "probe.schedule", [&] { return s->scheduler->schedule(fleet.services); });
        ops.count(r.ok());
      }
      for (const Replay& replay : replays) {
        run_replay(replay, shards, pool.get(), tracer, "probe.run", ops, problems);
      }
      (on ? traced_probe : untraced_probe).push_back(ms_between(start, Clock::now()));
    }
  }
  tracer.set_enabled(true);
  double serial_ref_ms = 0.0;
  const double capacity = box_parallel_capacity(reference, cpus, ops, &serial_ref_ms);

  ReplayFacts sum;
  ReplayFacts llm;
  std::vector<std::string> llm_fleets;
  for (std::size_t f = 0; f < fleet_count; ++f) {
    sum.events += facts[f].events;
    sum.requests += facts[f].requests;
    sum.batches += facts[f].batches;
    if (replays[f].streaming) {
      llm_fleets.push_back(fleet_names[f]);
      llm.tokens += facts[f].tokens;
      llm.rejected += facts[f].rejected;
      llm.evicted += facts[f].evicted;
      llm.kv_peak = std::max(llm.kv_peak, facts[f].kv_peak);
    }
  }
  const double des_run_ms = median_rep_sum(tracer, "cluster_sim.run", fleet_names);
  auto median_of = [&](const char* name) { return median(tracer.durations(name)); };

  auto& m = report.metrics;
  m.push_back({"profiler.profile_ms", median_of("profiler.profile_all"), "ms"});
  m.push_back({"profiler.surface_ms", median_of("profiler.surface_index"), "ms"});
  m.push_back({"profiler.grid_points", static_cast<double>(s->grid_points), "count"});
  m.push_back({"configurator.ms", median_rep_sum(tracer, "configurator.configure", fleet_names), "ms"});
  double service_count = 0.0;
  for (const Fleet& fleet : inputs.fleets) service_count += static_cast<double>(fleet.services.size());
  m.push_back({"configurator.services", service_count, "count"});
  m.push_back({"allocator.relocation_ms", median_rep_sum(tracer, "allocator.segment_relocation", fleet_names), "ms"});
  m.push_back({"allocator.optimization_ms", median_rep_sum(tracer, "allocator.allocation_optimization", fleet_names), "ms"});
  m.push_back({"allocator.segments", staged.segments, "count"});
  m.push_back({"allocator.opt_candidate_gpus", staged.opt_candidate_gpus, "count"});
  m.push_back({"allocator.opt_gpus_saved", staged.opt_gpus_saved, "count"});
  m.push_back({"schedule.to_deployment_ms", median_rep_sum(tracer, "parvagpu.to_deployment", fleet_names), "ms"});
  m.push_back({"schedule.reported_delay_ms", median(reported_ms), "ms"});
  m.push_back({"schedule.untimed_ms", median(untimed_ms), "ms"});
  m.push_back({"reconfig.segments_removed", static_cast<double>(churn.segments_removed), "count"});
  m.push_back({"reconfig.segments_added", static_cast<double>(churn.segments_added), "count"});
  m.push_back({"reconfig.segments_untouched", static_cast<double>(churn.segments_untouched), "count"});
  m.push_back({"reconfig.failed", reconfig_failed, "count"});
  const bool deployed = config.deploy_and_repair;
  m.push_back({"deployer.deploy_ms", median_of("deployer.deploy"), "ms"});
  m.push_back({"deployer.units", deployed ? static_cast<double>(s->planned.front().units.size()) : 0.0, "count"});
  m.push_back({"deployer.transient_retries", static_cast<double>(s->deploy_stats.transient_retries), "count"});
  m.push_back({"repair.ms", median_of("repair.handle_gpu_loss"), "ms"});
  m.push_back({"repair.replaced_units", static_cast<double>(s->replaced_units), "count"});
  m.push_back({"repair.recovery_sim_ms", s->recovery_sim_ms, "ms"});
  m.push_back({"des.run_ms", des_run_ms, "ms"});
  m.push_back({"des.events", sum.events, "count"});
  m.push_back({"des.requests", sum.requests, "count"});
  m.push_back({"des.batches", sum.batches, "count"});
  m.push_back({"des.ns_per_event", sum.events > 0.0 ? des_run_ms * 1e6 / sum.events : 0.0, "ns"});
  m.push_back({"des.fixed_ms", median_rep_sum(tracer, "cluster_sim.run_fixed", fleet_names), "ms"});
  m.push_back({"shards.busy_ms_max", busy_max, "ms"});
  m.push_back({"shards.busy_ms_sum", busy_sum, "ms"});
  m.push_back({"shards.imbalance", busy_mean_sum > 0.0 ? busy_max / busy_mean_sum : 0.0, "ratio"});
  m.push_back({"shards.critical_path_speedup", busy_max > 0.0 ? serial_busy / busy_max : 0.0, "ratio"});
  m.push_back({"shards.wall_speedup", sharded_wall > 0.0 ? serial_wall / sharded_wall : 0.0, "ratio"});
  m.push_back({"box.parallel_capacity", capacity, "ratio"});
  m.push_back({"box.serial_ref_ms", serial_ref_ms, "ms"});
  m.push_back({"llm.run_ms", llm_fleets.empty() ? 0.0 : median_rep_sum(tracer, "cluster_sim.run", llm_fleets), "ms"});
  m.push_back({"llm.tokens", llm.tokens, "count"});
  m.push_back({"llm.rejected", llm.rejected, "count"});
  m.push_back({"llm.evicted", llm.evicted, "count"});
  m.push_back({"llm.kv_peak", llm.kv_peak, "fraction"});
  m.push_back({"trace.overhead_frac", median(traced_probe) / median(untraced_probe), "ratio"});
  report.trace_json = tracer.to_chrome_json();
  return finish();
}

}  // namespace parvabench

// parvactl — command-line front end to the ParvaGPU scheduler.
//
// Subcommands:
//   profile  --models a,b,c --out profiles.csv
//       Run the one-time profiling sweep and save the grid.
//   schedule --services services.csv [--profiles profiles.csv]
//            [--framework ParvaGPU|ParvaGPU-single|ParvaGPU-unoptimized]
//       Produce a deployment map for a service list. The services CSV has
//       a header and rows: id,model,slo_latency_ms,request_rate. The
//       wall-clock scheduling delay goes to stderr, so stdout is the same
//       bytes on every run.
//   scenarios
//       List the built-in Table IV scenarios.
//   simulate --scenario S2 | --services services.csv
//            [--inject-fault gpu=0@t=10000] [--transient-p 0.15]
//            [--seed 7] [--duration-ms 28000] [--telemetry-out PREFIX]
//            [--shards N]
//       Schedule, then replay the deployment in the discrete-event
//       simulator. --shards N partitions the services across N engine
//       shards running on a thread pool (DESIGN.md §4.5); the report and
//       telemetry exports are byte-identical for every N. With --inject-fault the named GPU drops out XID-style at
//       the given simulated time; the self-healing repair path re-places
//       the displaced segments and the report shows compliance through the
//       failure (pre / degraded / recovered) plus recovery metrics.
//       --telemetry-out records metrics and a structured event log across
//       the control plane and the simulation, writing PREFIX.prom
//       (Prometheus text exposition), PREFIX.jsonl (event log), and
//       PREFIX.csv (metric summary). The printed report is byte-identical
//       with or without it.
//
// A flag the subcommand does not read exits 2, as a repeated flag and an
// argument after the subcommand do.
//
// Examples:
//   $ parvactl profile --models resnet-50,vgg-19 --out /tmp/profiles.csv
//   $ parvactl schedule --services my_services.csv
//   $ parvactl simulate --scenario S2 --inject-fault gpu=0@t=10000
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/table.hpp"
#include "core/metrics.hpp"
#include "core/parvagpu.hpp"
#include "core/repair.hpp"
#include "gpu/dcgm_sim.hpp"
#include "profiler/profile_store.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace parva;

int usage() {
  std::cerr << "usage: parvactl <profile|schedule|scenarios|simulate> [flags]\n"
               "  profile   --models a,b,c [--out profiles.csv]\n"
               "  schedule  --services services.csv | --scenario S2\n"
               "            [--profiles profiles.csv] [--framework ParvaGPU]\n"
               "  scenarios\n"
               "  simulate  --services services.csv | --scenario S2|S7\n"
               "            [--inject-fault gpu=0@t=10000] [--transient-p 0.15]\n"
               "            [--seed 7] [--duration-ms 28000] [--telemetry-out PREFIX]\n"
               "            [--shards N] [--arrivals deterministic|poisson|bursty]\n"
               "            [--llm-admission reject|evict]\n";
  return 2;
}

/// Names on stderr the first flag, in command-line order, that the
/// subcommand does not read, and returns 2 (a usage error, like a repeated
/// flag); returns 0 when it reads them all. A misspelled or retired flag
/// must not run with its default.
int refuse_unknown_flags(const CliArgs& args, std::initializer_list<std::string_view> known) {
  const std::optional<std::string> unknown = args.first_unknown(known);
  if (!unknown) return 0;
  std::cerr << "error: parvactl " << args.positional().front() << " has no flag --"
            << *unknown << "\n";
  return 2;
}

/// Parses the --inject-fault spec "gpu=K@t=MS" (t in simulated ms): K is
/// a whole number in [0, INT_MAX], MS a finite non-negative number.
bool parse_fault_spec(const std::string& spec, gpu::GpuFailureEvent* out) {
  int gpu_index = -1;
  double at_ms = -1.0;
  for (const auto& part : split(spec, '@')) {
    const auto kv = split(trim(part), '=');
    if (kv.size() != 2) return false;
    const auto key = trim(kv[0]);
    const auto value = trim(kv[1]);
    if (key == "gpu") {
      unsigned long long gpu = 0;
      if (!parse_uint(value, gpu) ||
          gpu > static_cast<unsigned long long>(std::numeric_limits<int>::max())) {
        return false;
      }
      gpu_index = static_cast<int>(gpu);
    } else if (key == "t") {
      if (!parse_double(value, at_ms) || !std::isfinite(at_ms)) return false;
    } else {
      return false;
    }
  }
  if (gpu_index < 0 || at_ms < 0.0) return false;
  out->gpu_index = gpu_index;
  out->at_ms = at_ms;
  return true;
}

[[nodiscard]] Result<std::vector<core::ServiceSpec>> load_services(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Error(ErrorCode::kNotFound, "cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return core::services_from_csv(buffer.str());
}

int cmd_profile(const CliArgs& args) {
  if (const int rc = refuse_unknown_flags(args, {"models", "out"}); rc != 0) return rc;
  const std::string models_arg = args.get("models", "");
  std::vector<std::string> models;
  if (models_arg.empty()) {
    models = perfmodel::ModelCatalog::builtin().names();
  } else {
    for (const auto& name : split(models_arg, ',')) models.push_back(std::string(trim(name)));
  }
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  profiler::Profiler profiler(perf);
  profiler::ProfileSet set;
  for (const auto& model : models) {
    if (perfmodel::ModelCatalog::builtin().find(model) == nullptr) {
      std::cerr << "unknown model: " << model << "\n";
      return 1;
    }
    set.add(profiler.profile(model));
  }
  const std::string out = args.get("out", "profiles.csv");
  const Status saved = profiler::save_csv_file(set, out);
  if (!saved.ok()) {
    std::cerr << saved.to_string() << "\n";
    return 1;
  }
  std::cout << "profiled " << set.size() << " model(s) -> " << out << "\n";
  return 0;
}

int cmd_schedule(const CliArgs& args) {
  if (const int rc =
          refuse_unknown_flags(args, {"services", "scenario", "profiles", "framework"});
      rc != 0) {
    return rc;
  }
  // Services: from CSV or a built-in scenario.
  std::vector<core::ServiceSpec> services;
  if (args.has("services")) {
    auto loaded = load_services(args.get("services", ""));
    if (!loaded.ok()) {
      std::cerr << loaded.error().to_string() << "\n";
      return 1;
    }
    services = std::move(loaded).value();
  } else if (args.has("scenario")) {
    services = scenarios::scenario(args.get("scenario", "S2")).services;
  } else {
    return usage();
  }

  // Profiles: from CSV or computed on the fly (over the LLM-extended
  // catalog, a strict superset of the builtin one).
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
  profiler::ProfileSet profiles;
  if (args.has("profiles")) {
    auto loaded = profiler::load_csv_file(args.get("profiles", ""));
    if (!loaded.ok()) {
      std::cerr << loaded.error().to_string() << "\n";
      return 1;
    }
    profiles = std::move(loaded).value();
  } else {
    profiler::Profiler profiler(perf);
    profiles = profiler.profile_all(perfmodel::ModelCatalog::with_llm().names());
  }

  core::ParvaGpuOptions options;
  const std::string framework = args.get("framework", "ParvaGPU");
  if (framework == "ParvaGPU-single") {
    options.use_mps = false;
  } else if (framework == "ParvaGPU-unoptimized") {
    options.optimize_allocation = false;
  } else if (framework != "ParvaGPU") {
    std::cerr << "unknown framework: " << framework << "\n";
    return 1;
  }

  core::ParvaGpuScheduler scheduler(profiles, options);
  const auto result = scheduler.schedule(services);
  if (!result.ok()) {
    std::cerr << "scheduling failed: " << result.error().to_string() << "\n";
    return 1;
  }

  std::cout << "deployment map: " << scheduler.last_plan().to_string() << "\n\n";
  TextTable table({"service", "model", "gpu", "segment", "batch", "procs", "capacity",
                   "latency_ms"});
  for (const auto& unit : result.value().deployment.units) {
    table.add_row({std::to_string(unit.service_id), unit.model,
                   std::to_string(unit.gpu_index),
                   format_double(unit.gpc_grant, 0) + "g@" +
                       std::to_string(unit.placement->start_slot),
                   std::to_string(unit.batch), std::to_string(unit.procs),
                   format_double(unit.actual_throughput, 1),
                   format_double(unit.actual_latency_ms, 2)});
  }
  table.print(std::cout);

  const auto metrics = core::compute_metrics(result.value().deployment, services);
  std::cout << "\nGPUs: " << metrics.gpu_count
            << "  slack: " << format_double(metrics.internal_slack * 100, 1)
            << "%  fragmentation: "
            << format_double(metrics.external_fragmentation * 100, 1) << "%\n";
  // Wall clock differs run to run; on stderr it leaves stdout byte-comparable.
  std::cerr << "delay: " << format_double(result.value().scheduling_delay_ms, 3) << " ms\n";
  return 0;
}

int cmd_simulate(const CliArgs& args) {
  if (const int rc = refuse_unknown_flags(
          args, {"services", "scenario", "inject-fault", "transient-p", "seed", "duration-ms",
                 "telemetry-out", "shards", "arrivals", "llm-admission"});
      rc != 0) {
    return rc;
  }
  std::vector<core::ServiceSpec> services;
  bool streaming_default = false;
  if (args.has("services")) {
    auto loaded = load_services(args.get("services", ""));
    if (!loaded.ok()) {
      std::cerr << loaded.error().to_string() << "\n";
      return 1;
    }
    services = std::move(loaded).value();
  } else if (args.has("scenario")) {
    const scenarios::Scenario& scenario = scenarios::scenario(args.get("scenario", "S2"));
    services = scenario.services;
    streaming_default = scenario.streaming;
  } else {
    return usage();
  }

  // The LLM-extended catalog is a superset of the builtin one, so Table-IV
  // scenarios schedule identically while S7's llama rows resolve.
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
  profiler::Profiler profiler(perf);
  const auto profiles = profiler.profile_all(perfmodel::ModelCatalog::with_llm().names());
  core::ParvaGpuScheduler scheduler(profiles);
  const auto scheduled = scheduler.schedule(services);
  if (!scheduled.ok()) {
    std::cerr << "scheduling failed: " << scheduled.error().to_string() << "\n";
    return 1;
  }
  core::Deployment deployment = scheduled.value().deployment;

  double value = 0.0;
  gpu::FaultPlan fault_plan;
  if (args.has("seed")) {
    unsigned long long seed = 0;
    if (!parse_uint(args.get("seed", ""), seed)) {
      std::cerr << "bad --seed '" << args.get("seed", "")
                << "' (want a non-negative integer)\n";
      return 1;
    }
    fault_plan.seed = seed;
  }
  if (args.has("transient-p")) {
    if (!parse_double(args.get("transient-p", ""), value) || !(value >= 0.0 && value <= 1.0)) {
      std::cerr << "bad --transient-p (want a probability)\n";
      return 1;
    }
    fault_plan.transient_create_failure_prob = value;
  }
  gpu::GpuFailureEvent failure;
  if (args.has("inject-fault")) {
    if (!parse_fault_spec(args.get("inject-fault", ""), &failure)) {
      std::cerr << "bad --inject-fault (want gpu=K@t=MS)\n";
      return 1;
    }
    if (failure.gpu_index >= deployment.gpu_count) {
      std::cerr << "--inject-fault gpu out of range (fleet has " << deployment.gpu_count
                << " GPUs)\n";
      return 1;
    }
    fault_plan.gpu_failures.push_back(failure);
  }

  serving::SimulationOptions options;
  options.seed = fault_plan.seed;
  options.duration_ms = 28'000.0;
  if (args.has("duration-ms")) {
    if (!parse_double(args.get("duration-ms", ""), value) || !std::isfinite(value) ||
        value <= 0.0) {
      std::cerr << "bad --duration-ms '" << args.get("duration-ms", "")
                << "' (want a finite positive number)\n";
      return 1;
    }
    options.duration_ms = value;
  }
  options.warmup_ms = 2'000.0;
  options.timeline_bucket_ms = 2'000.0;

  // Sharded engine (DESIGN.md §4.5/§4.6): one process-wide pool serves
  // every parallel surface — here the shard windows. The pool's
  // parallel_for is nesting-safe (cooperative caller), so the same pool
  // could simultaneously drive a sweep of sharded simulations; no
  // dedicated shard pool exists anymore.
  std::unique_ptr<ThreadPool> pool;
  if (args.has("shards")) {
    // Hard error, not a silent fallback: "--shards 0", a negative count, or
    // trailing junk ("4x") is a typo the user needs to see.
    if (!args.int_in_range("shards", 1, 4096)) {
      std::cerr << "bad --shards '" << args.get("shards", "")
                << "' (want an integer in [1, 4096])\n";
      return 1;
    }
    options.shards = static_cast<int>(args.get_int("shards", 1));
    if (options.shards > 1) {
      pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(options.shards));
      options.shard_pool = pool.get();
    }
  }

  // Arrival process and generative-LLM admission (DESIGN.md §4.7). Every
  // value is validated up front; an unknown spelling is a hard CLI error.
  // Streaming scenarios (S7) default to bursty arrivals; --arrivals
  // overrides either way.
  if (streaming_default) options.arrivals = serving::ArrivalProcess::kBursty;
  if (args.has("arrivals")) {
    const std::string arrivals = args.get("arrivals", "");
    if (arrivals == "deterministic") {
      options.arrivals = serving::ArrivalProcess::kDeterministic;
    } else if (arrivals == "poisson") {
      options.arrivals = serving::ArrivalProcess::kPoisson;
    } else if (arrivals == "bursty") {
      options.arrivals = serving::ArrivalProcess::kBursty;
    } else {
      std::cerr << "bad --arrivals '" << arrivals
                << "' (want deterministic|poisson|bursty)\n";
      return 1;
    }
  }
  if (args.has("llm-admission") &&
      !serving::parse_llm_admission(args.get("llm-admission", ""), &options.llm.admission)) {
    std::cerr << "bad --llm-admission '" << args.get("llm-admission", "")
              << "' (want reject|evict)\n";
    return 1;
  }

  // Materialise the fleet on the (possibly faulty) control plane; on a
  // scheduled loss, run the repair path and feed its replacements into the
  // simulation as mid-run activations.
  // Optional telemetry: one sink shared by the control plane and the
  // simulation, exported to PREFIX.{prom,jsonl,csv} at the end.
  std::unique_ptr<telemetry::Telemetry> telemetry;
  const std::string telemetry_prefix = args.get("telemetry-out", "");
  if (!telemetry_prefix.empty()) telemetry = std::make_unique<telemetry::Telemetry>();

  gpu::GpuCluster cluster(static_cast<std::size_t>(deployment.gpu_count));
  gpu::NvmlSim nvml(cluster);
  gpu::DcgmSim dcgm;
  gpu::FaultInjector injector(fault_plan);
  nvml.set_fault_injector(&injector);
  nvml.attach_health_monitor(&dcgm);
  nvml.set_telemetry(telemetry.get());
  dcgm.set_telemetry(telemetry.get());
  core::Deployer deployer(nvml, perf);
  deployer.set_telemetry(telemetry.get());
  auto state = deployer.deploy(deployment);
  if (!state.ok()) {
    std::cerr << "deploy failed: " << state.error().to_string() << "\n";
    return 1;
  }

  core::Deployment sim_deployment = deployment;
  if (!fault_plan.gpu_failures.empty()) {
    nvml.set_time_ms(failure.at_ms);
    // parva-audit: allow(R6) fault injection: the replay plants the failure on purpose
    (void)nvml.fail_device(static_cast<unsigned>(failure.gpu_index), failure.xid);
    core::LiveUpdater updater(deployer);
    core::RepairOptions repair_options;
    repair_options.telemetry = telemetry.get();
    core::RepairCoordinator repairer(deployer, updater, repair_options);
    auto repaired =
        repairer.handle_gpu_loss(deployment, state.value(), failure.gpu_index);
    if (!repaired.ok()) {
      std::cerr << "repair failed: " << repaired.error().to_string() << "\n";
      return 1;
    }
    const auto& repair = repaired.value();
    const double recovered_at = failure.at_ms + repair.recovery_ms;
    options.fault_plan = &fault_plan;
    options.recovered_at_ms = recovered_at;
    for (const auto& unit : repair.replacements) {
      options.activations.push_back({sim_deployment.units.size(), recovered_at});
      sim_deployment.units.push_back(unit);
    }
    sim_deployment.gpu_count = repair.deployment.gpu_count;
    std::cout << "fault: GPU " << failure.gpu_index << " lost at t="
              << format_double(failure.at_ms, 0) << " ms (XID " << failure.xid << "), "
              << repair.lost_units << " unit(s) displaced, repaired in "
              << format_double(repair.recovery_ms, 0) << " ms ("
              << repair.replaced_units << " replacement(s))\n\n";
  }

  serving::ClusterSimulation sim(sim_deployment, services, perf);
  options.telemetry = telemetry.get();
  const auto result = sim.run(options);

  TextTable table({"t (s)", "batches", "compliance", "shed"});
  for (const auto& bucket : result.timeline) {
    table.add_row({format_double((options.warmup_ms + bucket.t_ms) / 1000.0, 0),
                   std::to_string(bucket.batches), format_double(bucket.compliance(), 4),
                   std::to_string(bucket.shed_requests)});
  }
  table.print(std::cout);

  std::cout << "\noverall compliance: " << format_double(result.overall_compliance(), 4);
  const bool llm_run = result.generated_tokens > 0 || result.requests_rejected > 0 ||
                       result.requests_evicted > 0;
  if (llm_run) {
    double kv_peak = 0.0;
    for (const double ratio : result.unit_kv_peak) kv_peak = std::max(kv_peak, ratio);
    std::cout << "\nllm: " << result.generated_tokens << " tokens generated, "
              << result.requests_rejected << " rejected, " << result.requests_evicted
              << " evicted, peak KV " << format_double(kv_peak * 100.0, 1) << "% ("
              << serving::to_string(options.llm.admission) << ")";
  }
  if (result.failure_at_ms >= 0.0) {
    std::cout << "  pre-failure: " << format_double(result.pre_failure.compliance(), 4)
              << "  degraded: " << format_double(result.degraded.compliance(), 4)
              << "  recovered: " << format_double(result.post_recovery.compliance(), 4)
              << "\nrequests shed: " << result.requests_shed;
  }
  const auto& stats = deployer.total_stats();
  if (stats.transient_retries > 0) {
    std::cout << "\ntransient retries: " << stats.transient_retries
              << "  backoff: " << format_double(stats.backoff_ms, 0) << " ms"
              << "  fallback placements: " << stats.fallback_placements;
  }
  std::cout << "\n";

  if (telemetry != nullptr) {
    struct Export {
      const char* suffix;
      std::string content;
    };
    const Export exports[] = {
        {".prom", telemetry::to_prometheus(telemetry->metrics())},
        {".jsonl", telemetry::to_json_lines(telemetry->events())},
        {".csv", telemetry::to_csv_summary(telemetry->metrics())},
    };
    for (const auto& e : exports) {
      const std::string path = telemetry_prefix + e.suffix;
      const Status written = telemetry::write_text_file(path, e.content);
      if (!written.ok()) {
        std::cerr << "telemetry export failed: " << written.to_string() << "\n";
        return 1;
      }
    }
    std::cerr << "telemetry: " << telemetry->metrics().series_count() << " series, "
              << telemetry->events().size() << " events";
    if (const std::size_t dropped = telemetry->events().dropped(); dropped != 0) {
      std::cerr << " (" << dropped << " dropped past the log's capacity)";
    }
    std::cerr << " -> " << telemetry_prefix << ".{prom,jsonl,csv}\n";
  }
  return 0;
}

int cmd_scenarios(const CliArgs& args) {
  if (const int rc = refuse_unknown_flags(args, {}); rc != 0) return rc;
  TextTable table({"scenario", "services", "total req/s", "tightest SLO (ms)", "class"});
  auto add = [&table](const scenarios::Scenario& sc, const char* klass) {
    double total = 0.0;
    double tightest = 1e18;
    for (const auto& spec : sc.services) {
      total += spec.request_rate;
      tightest = std::min(tightest, spec.slo_latency_ms);
    }
    table.add_row({sc.name, std::to_string(sc.services.size()), format_double(total, 0),
                   format_double(tightest, 0), klass});
  };
  for (const auto& sc : scenarios::all_scenarios()) add(sc, "Table IV");
  add(scenarios::llm_scenario(), "LLM (prefill/decode)");
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (!args.repeated().empty()) {
    std::cerr << "error: flag --" << args.repeated().front()
              << " given more than once (each flag may appear at most once)\n";
    return 2;
  }
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional().front();
  if (args.positional().size() > 1) {
    std::cerr << "error: parvactl " << command << " takes no argument '"
              << args.positional()[1] << "'\n";
    return 2;
  }
  try {
    if (command == "profile") return cmd_profile(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "scenarios") return cmd_scenarios(args);
    if (command == "simulate") return cmd_simulate(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

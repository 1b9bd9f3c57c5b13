// Reproduces Figure 10: total GPUs as the S5 service count scales from 1x
// to 10x, using each framework's predictor (no physical deployment — the
// schedulers already operate on plans). iGniter is excluded: it cannot run
// S5 (as in the paper).
//
// Paper: ParvaGPU uses on average 45.2% / 30% / 7.4% fewer GPUs than
// gpulet / MIG-serving / ParvaGPU-single across the folds.
//
// Two cluster-scale extensions follow the paper table (ROADMAP: "100M+
// events/s and 10k-GPU clusters"): ParvaGPU fleets grown to ~1k-10k GPUs,
// and the sharded DES engine (DESIGN.md §4.5) replaying the ~1k-GPU fleet
// with 1/2/4 shards.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "scenarios/experiment.hpp"
#include "serving/cluster_sim.hpp"

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

}  // namespace

int main() {
  using namespace parva;
  using namespace parva::scenarios;

  bench::banner("Figure 10", "Total GPUs with S5 services scaled 1x..10x (predictor mode)");

  const ExperimentContext context = ExperimentContext::create();
  const std::vector<Framework> frameworks = {Framework::kGpulet, Framework::kMigServing,
                                             Framework::kParvaGpu,
                                             Framework::kParvaGpuSingle};

  std::vector<std::string> header = {"framework"};
  for (int fold = 1; fold <= 10; ++fold) header.push_back("x" + std::to_string(fold));
  TextTable table(header);

  std::map<std::string, std::vector<int>> gpus;
  for (Framework framework : frameworks) {
    std::vector<std::string> row = {framework_name(framework)};
    for (int fold = 1; fold <= 10; ++fold) {
      const Scenario scaled = scale_scenario(scenario("S5"), fold);
      const ExperimentResult r = run_experiment(context, framework, scaled);
      if (!r.feasible) {
        row.push_back("fail");
      } else {
        row.push_back(std::to_string(r.gpu_count));
        gpus[framework_name(framework)].push_back(r.gpu_count);
      }
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, "fig10_scalability_gpus");

  const auto& parva = gpus["ParvaGPU"];
  for (const auto& [name, counts] : gpus) {
    if (name == "ParvaGPU" || counts.size() != parva.size()) continue;
    double sum = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      sum += 1.0 - static_cast<double>(parva[i]) / static_cast<double>(counts[i]);
    }
    std::cout << "ParvaGPU saves on average "
              << format_double(100.0 * sum / static_cast<double>(counts.size()), 1)
              << "% GPUs vs " << name << "\n";
  }
  std::cout << "Paper: 45.2% vs gpulet, 30% vs MIG-serving, 7.4% vs ParvaGPU-single.\n\n";

  // Cluster scale: folds sized so the ParvaGPU fleet lands at roughly
  // 1k / 2.5k / 5k / 10k GPUs (~14.6 GPUs per S5 fold). Predictor mode,
  // ParvaGPU only — the point is that the scheduler and its data
  // structures hold up at fleet sizes the baselines above never reach.
  bench::banner("Figure 10b", "ParvaGPU fleets grown to 1k-10k GPUs (predictor mode)");
  TextTable cluster({"fold", "services", "gpus", "schedule (ms)", "sim 250ms (ms)"});
  core::Deployment shard_deployment;
  std::vector<core::ServiceSpec> shard_services;
  for (const int fold : {70, 175, 350, 700}) {
    const Scenario scaled = scale_scenario(scenario("S5"), fold);
    auto scheduler = context.make_scheduler(Framework::kParvaGpu);
    const auto start = std::chrono::steady_clock::now();
    const auto outcome = scheduler->schedule(scaled.services);
    const double ms = elapsed_ms(start);
    if (!outcome.ok()) {
      std::cerr << "cluster-scale scheduling failed at fold " << fold << ": "
                << outcome.error().to_string() << "\n";
      return 1;
    }
    // Single-shard replay of 250 ms of fleet time: the tournament arrival
    // scheduler (shard_engine.hpp) keeps the per-event cost O(log services)
    // at every fold — this column used to grow quadratically in fold when
    // the selection was a flat O(services) scan.
    serving::ClusterSimulation fold_sim(outcome.value().deployment, scaled.services,
                                        context.perf());
    serving::SimulationOptions fold_options;
    fold_options.duration_ms = 250.0;
    fold_options.warmup_ms = 50.0;
    const auto sim_start = std::chrono::steady_clock::now();
    const serving::SimulationResult fold_result = fold_sim.run(fold_options);
    const double sim_ms = elapsed_ms(sim_start);
    if (fold_result.events_processed == 0) {
      std::cerr << "cluster-scale replay produced no events at fold " << fold << "\n";
      return 1;
    }
    std::string fold_label = "x";  // avoids a GCC 12 -Wrestrict false positive
    fold_label += std::to_string(fold);
    cluster.add_row({std::move(fold_label), std::to_string(scaled.services.size()),
                     std::to_string(outcome.value().deployment.gpu_count),
                     format_double(ms, 1), format_double(sim_ms, 1)});
    if (fold == 70) {  // ~1k GPUs: the shard-curve workload below
      shard_deployment = outcome.value().deployment;
      shard_services = scaled.services;
    }
  }
  bench::emit(cluster, "fig10_cluster_scale");

  // Shard scaling on the ~1k-GPU fleet: critical-path throughput (total
  // events over the busiest shard's span; shards timed sequentially so the
  // number is scheduler-contention-free — parvabench reports the same ratio
  // as `shards.critical_path_speedup` on fleet_replay).
  bench::banner("Figure 10c", "Sharded DES replay of the ~1k-GPU fleet (250 ms)");
  serving::SimulationOptions sim_options;
  sim_options.duration_ms = 250.0;
  sim_options.warmup_ms = 50.0;
  TextTable shard_table({"shards", "events", "events/s (critical path)", "speedup"});
  double base_rate = 0.0;
  for (const int shards : {1, 2, 4}) {
    sim_options.shards = shards;
    serving::ClusterSimulation sim(shard_deployment, shard_services, context.perf());
    const serving::SimulationResult result = sim.run(sim_options);
    double critical_ms = 0.0;
    for (const double busy : result.shard_busy_ms) {
      critical_ms = std::max(critical_ms, busy);
    }
    const double rate = static_cast<double>(result.events_processed) / (critical_ms / 1000.0);
    if (shards == 1) base_rate = rate;
    shard_table.add_row({std::to_string(shards), std::to_string(result.events_processed),
                         format_double(rate, 0), format_double(rate / base_rate, 2) + "x"});
  }
  bench::emit(shard_table, "fig10_shard_scaling");
  std::cout << "With the tournament arrival scheduler the per-event cost is\n"
               "O(log local services), so the speedup tracks the shard count\n"
               "closely — the old flat O(local services) scan made it wildly\n"
               "superlinear at this fleet size by also shrinking per-event cost.\n";
  return 0;
}

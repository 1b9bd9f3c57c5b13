#include "serving/sim_runner.hpp"

namespace parva::serving {

std::vector<SimulationResult> run_seeds(const core::Deployment& deployment,
                                        std::span<const core::ServiceSpec> services,
                                        const perfmodel::AnalyticalPerfModel& perf,
                                        const SimulationOptions& base,
                                        std::span<const std::uint64_t> seeds,
                                        ThreadPool& pool) {
  std::vector<SimulationResult> results(seeds.size());
  pool.parallel_for(seeds.size(), [&](std::size_t i) {
    ClusterSimulation sim(deployment, services, perf);
    SimulationOptions options = base;
    options.seed = seeds[i];
    if (options.shards > 1 && options.shard_pool == nullptr) {
      // Nested fork-join on the sweep pool itself: parallel_for is
      // cooperative, so the shard windows of this run recruit idle sweep
      // workers and never deadlock. Sequential-shard outputs are
      // byte-identical, so this only changes where the work runs.
      options.shard_pool = &pool;
    }
    results[i] = sim.run(options);
  });
  return results;
}

}  // namespace parva::serving

#include "serving/sim_runner.hpp"

#include <deque>

namespace parva::serving {

std::vector<SimulationResult> run_seeds(const core::Deployment& deployment,
                                        std::span<const core::ServiceSpec> services,
                                        const perfmodel::AnalyticalPerfModel& perf,
                                        const SimulationOptions& base,
                                        std::span<const std::uint64_t> seeds,
                                        ThreadPool& pool) {
  std::vector<SimulationResult> results(seeds.size());
  std::deque<telemetry::Telemetry> sinks;
  if (base.telemetry != nullptr) {
    for (std::size_t i = 0; i < seeds.size(); ++i) sinks.emplace_back(base.telemetry->options());
  }
  pool.parallel_for(seeds.size(), [&](std::size_t i) {
    ClusterSimulation sim(deployment, services, perf);
    SimulationOptions options = base;
    options.seed = seeds[i];
    if (base.telemetry != nullptr) options.telemetry = &sinks[i];
    if (options.shards > 1 && options.shard_pool == nullptr) {
      // Nested fork-join on the sweep pool itself: parallel_for is
      // cooperative, so the shard windows of this run recruit idle sweep
      // workers and never deadlock. Sequential-shard outputs are
      // byte-identical, so this only changes where the work runs.
      options.shard_pool = &pool;
    }
    results[i] = sim.run(options);
  });
  for (const telemetry::Telemetry& sink : sinks) {
    base.telemetry->metrics().merge(sink.metrics());
    base.telemetry->events().merge(sink.events());
  }
  return results;
}

}  // namespace parva::serving

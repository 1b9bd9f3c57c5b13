// Concurrent seed sweep: runs one ClusterSimulation per seed across the
// shared thread pool.
//
// ClusterSimulation::run is a pure function of (deployment, services,
// options) — every random stream derives from options.seed — so the runs
// parallelize with no shared mutable state: each task owns its engine and
// writes one pre-sized result slot, merged at the join. Results are in seed
// order and bit-identical to a serial loop (tests/serving/sim_runner_test).
// A telemetry sink on `base` is not shared either: each run writes a sink
// of its own, built with its options, and the join merges them into
// `base.telemetry` in seed order, so its exports are the same for every
// pool size.
//
// Sharded runs share the sweep pool: with options.shards > 1 and no
// dedicated shard_pool, each run's shard windows execute on `pool` itself.
// ThreadPool::parallel_for is nesting-safe (the caller claims indices from
// the same cursor as the recruited workers, so a sweep task blocked at a
// window barrier still drives its own shards). Outputs are byte-identical
// either way (tests/serving/nested_pool_test.cpp, under tsan).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "serving/cluster_sim.hpp"

namespace parva::serving {

/// Seed sweep of one simulation: `base` with each seed substituted, run
/// concurrently on `pool`; results in seed order. A sharded `base`
/// (shards > 1) that names no shard_pool of its own has its shards
/// executed on `pool` too — one pool drives both levels.
std::vector<SimulationResult> run_seeds(const core::Deployment& deployment,
                                        std::span<const core::ServiceSpec> services,
                                        const perfmodel::AnalyticalPerfModel& perf,
                                        const SimulationOptions& base,
                                        std::span<const std::uint64_t> seeds,
                                        ThreadPool& pool);

}  // namespace parva::serving

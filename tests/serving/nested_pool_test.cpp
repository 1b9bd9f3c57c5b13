// Nested-pool stress battery (runs under the tsan preset): sharded
// simulation jobs execute their shard windows on the SAME pool that runs
// the sweep — run_seeds assigns shard_pool = &pool when the options name
// none — so the fork-join nests. ThreadPool::parallel_for is
// cooperative (the caller claims indices from the shared cursor), which is
// what makes this safe: a sweep task blocked at a window barrier drives
// its own shards, so even a 1-worker pool saturated with sharded jobs
// makes progress. These tests pin both halves of the contract — no
// deadlock under oversubscription, and byte-identical outputs vs. the
// serial loop.
#include "serving/sim_runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/parvagpu.hpp"
#include "gpu/fault_plan.hpp"
#include "tests/core/test_support.hpp"

namespace parva::serving {
namespace {

using core::testing::builtin_profiles;
using core::testing::service;

std::vector<std::uint64_t> fingerprint(const SimulationResult& result) {
  std::vector<std::uint64_t> print = {result.events_processed, result.requests_shed,
                                      std::bit_cast<std::uint64_t>(result.internal_slack)};
  for (const ServiceOutcome& outcome : result.services) {
    print.push_back(outcome.requests);
    print.push_back(outcome.batches);
    print.push_back(outcome.violated_batches);
    print.push_back(outcome.shed_requests);
    for (double sample : outcome.request_latency_ms.values()) {
      print.push_back(std::bit_cast<std::uint64_t>(sample));
    }
  }
  return print;
}

class NestedPoolTest : public ::testing::Test {
 protected:
  NestedPoolTest() {
    services_ = {service(0, "resnet-50", 205, 2000), service(1, "vgg-19", 397, 1200),
                 service(2, "mobilenetv2", 167, 4000), service(3, "bert-large", 400, 500),
                 service(4, "inceptionv3", 419, 700)};
    core::ParvaGpuScheduler scheduler(builtin_profiles());
    deployment_ = scheduler.schedule(services_).value().deployment;
    base_.duration_ms = 1'000.0;
    base_.warmup_ms = 200.0;
    base_.arrivals = ArrivalProcess::kPoisson;
  }

  /// Serial ground truth for `options`: one engine, no pools anywhere.
  std::vector<std::uint64_t> serial_fingerprint(SimulationOptions options) {
    options.shards = 1;
    options.shard_pool = nullptr;
    ClusterSimulation sim(deployment_, services_, perf_);
    return fingerprint(sim.run(options));
  }

  std::vector<core::ServiceSpec> services_;
  core::Deployment deployment_;
  SimulationOptions base_;
  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
};

TEST_F(NestedPoolTest, ShardedSweepOnSharedPoolMatchesSerial) {
  // More sharded jobs than workers: every worker ends up inside a sweep
  // task when the shard-level parallel_for fans out, so all shard work is
  // claimed cooperatively — the exact regime the old distinct-pool rule
  // forbade.
  ThreadPool pool(2);
  const std::vector<std::uint64_t> seeds = {3, 14, 15, 92, 65, 35};
  SimulationOptions base = base_;
  base.shards = 4;  // no shard_pool: run_seeds shares `pool`
  const auto swept = run_seeds(deployment_, services_, perf_, base, seeds, pool);
  ASSERT_EQ(swept.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SimulationOptions options = base_;
    options.seed = seeds[i];
    EXPECT_EQ(fingerprint(swept[i]), serial_fingerprint(options)) << "seed " << seeds[i];
  }
}

TEST_F(NestedPoolTest, SingleWorkerPoolStillCompletes) {
  // The degenerate oversubscription: one worker, several sharded jobs. A
  // non-cooperative join would deadlock instantly (the lone worker would
  // block waiting for shard tasks nothing can run).
  ThreadPool pool(1);
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  SimulationOptions base = base_;
  base.shards = 3;
  const auto swept = run_seeds(deployment_, services_, perf_, base, seeds, pool);
  ASSERT_EQ(swept.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SimulationOptions options = base_;
    options.seed = seeds[i];
    EXPECT_EQ(fingerprint(swept[i]), serial_fingerprint(options)) << "seed " << seeds[i];
  }
}

TEST_F(NestedPoolTest, FaultedShardedJobsShareTheSweepPool) {
  // Faults force window barriers mid-run — the join point where a sweep
  // task parks inside a nested parallel_for. Mixed shard counts make the
  // nesting depth vary across concurrently running jobs.
  gpu::FaultPlan plan;
  plan.gpu_failures = {{400.0, 0, 79}};
  ThreadPool pool(3);
  const std::vector<int> shard_counts = {1, 2, 4, 7};
  std::vector<SimulationResult> results(shard_counts.size());
  pool.parallel_for(shard_counts.size(), [&](std::size_t i) {
    SimulationOptions options = base_;
    options.fault_plan = &plan;
    options.seed = 21;
    options.shards = shard_counts[i];
    options.shard_pool = &pool;
    ClusterSimulation sim(deployment_, services_, perf_);
    results[i] = sim.run(options);
  });
  SimulationOptions serial_opts = base_;
  serial_opts.fault_plan = &plan;
  serial_opts.seed = 21;
  const std::vector<std::uint64_t> serial = serial_fingerprint(serial_opts);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(fingerprint(results[i]), serial) << "shards " << shard_counts[i];
  }
  EXPECT_GT(results[0].requests_shed, 0u);  // the fault actually bites
}

TEST_F(NestedPoolTest, ExplicitShardPoolIsStillHonoured) {
  // A sweep whose options name a shard pool keeps it — sharing the sweep
  // pool only fills the nullptr default — and may even name the sweep pool
  // explicitly.
  ThreadPool sweep_pool(2);
  ThreadPool dedicated(2);
  const std::vector<std::uint64_t> seeds = {8, 9};
  SimulationOptions base = base_;
  base.shards = 4;
  for (ThreadPool* shard_pool : {&dedicated, &sweep_pool}) {
    base.shard_pool = shard_pool;
    const auto swept = run_seeds(deployment_, services_, perf_, base, seeds, sweep_pool);
    ASSERT_EQ(swept.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      SimulationOptions options = base_;
      options.seed = seeds[i];
      EXPECT_EQ(fingerprint(swept[i]), serial_fingerprint(options))
          << "seed " << seeds[i] << (shard_pool == &sweep_pool ? " (self-nesting)" : "");
    }
  }
}

TEST_F(NestedPoolTest, RepeatedSweepsAreStable) {
  // Back-to-back sweeps on one pool (workers re-used, the queue drained
  // and refilled) return identical bytes every time.
  ThreadPool pool(2);
  SimulationOptions base = base_;
  base.shards = 4;
  const std::vector<std::uint64_t> seeds = {5, 6};
  const auto first = run_seeds(deployment_, services_, perf_, base, seeds, pool);
  for (int round = 0; round < 3; ++round) {
    const auto again = run_seeds(deployment_, services_, perf_, base, seeds, pool);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(fingerprint(again[i]), fingerprint(first[i])) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace parva::serving

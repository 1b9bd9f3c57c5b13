// The concurrent simulation driver must be invisible in the results: a
// parallel seed sweep returns exactly what a serial loop over the same
// seeds returns, in the same order.
#include "serving/sim_runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/parvagpu.hpp"
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
    for (double sample : outcome.request_latency_ms.values()) {
      print.push_back(std::bit_cast<std::uint64_t>(sample));
    }
  }
  return print;
}

class SimRunnerTest : public ::testing::Test {
 protected:
  SimRunnerTest() {
    const std::vector<core::ServiceSpec> services = {service(0, "resnet-50", 205, 829),
                                                     service(1, "inceptionv3", 419, 460)};
    services_ = services;
    core::ParvaGpuScheduler scheduler(builtin_profiles());
    deployment_ = scheduler.schedule(services).value().deployment;
    base_.duration_ms = 2'000.0;
    base_.warmup_ms = 200.0;
  }

  std::vector<core::ServiceSpec> services_;
  core::Deployment deployment_;
  SimulationOptions base_;
  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
  ThreadPool pool_{4};
};

TEST_F(SimRunnerTest, SeedSweepMatchesSerialLoop) {
  const std::vector<std::uint64_t> seeds = {11, 23, 47, 7, 99};
  const auto parallel = run_seeds(deployment_, services_, perf_, base_, seeds, pool_);
  ASSERT_EQ(parallel.size(), seeds.size());

  ClusterSimulation sim(deployment_, services_, perf_);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SimulationOptions options = base_;
    options.seed = seeds[i];
    EXPECT_EQ(fingerprint(parallel[i]), fingerprint(sim.run(options)))
        << "seed " << seeds[i];
  }
}

TEST_F(SimRunnerTest, PoissonSweepMatchesSerialLoop) {
  SimulationOptions poisson = base_;
  poisson.arrivals = ArrivalProcess::kPoisson;
  const std::vector<std::uint64_t> seeds = {poisson.seed, 5};
  const auto parallel = run_seeds(deployment_, services_, perf_, poisson, seeds, pool_);
  ASSERT_EQ(parallel.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ClusterSimulation sim(deployment_, services_, perf_);
    SimulationOptions options = poisson;
    options.seed = seeds[i];
    EXPECT_EQ(fingerprint(parallel[i]), fingerprint(sim.run(options))) << "seed " << seeds[i];
  }
}

TEST_F(SimRunnerTest, EmptySweepIsEmpty) {
  EXPECT_TRUE(run_seeds(deployment_, services_, perf_, base_, {}, pool_).empty());
}

}  // namespace
}  // namespace parva::serving

// The concurrent simulation driver must be invisible in the results: a
// parallel seed sweep returns exactly what a serial loop over the same
// seeds returns, in the same order.
#include "serving/sim_runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/parvagpu.hpp"
#include "scenarios/scenarios.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/telemetry.hpp"
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

/// Every scraped field of `registry`, each double as its bit pattern.
std::vector<std::pair<std::string, std::vector<std::uint64_t>>> scrape_bits(
    const telemetry::MetricsRegistry& registry) {
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> out;
  for (const telemetry::MetricSnapshot& s : registry.scrape()) {
    std::vector<std::uint64_t> bits = {std::bit_cast<std::uint64_t>(s.value),
                                       std::bit_cast<std::uint64_t>(s.sum),
                                       std::bit_cast<std::uint64_t>(s.count)};
    for (const double bucket : s.bucket_counts) {
      bits.push_back(std::bit_cast<std::uint64_t>(bucket));
    }
    out.emplace_back(s.name + "{" + s.labels + "}", std::move(bits));
  }
  return out;
}

double scraped_value(const telemetry::MetricsRegistry& registry, const std::string& name,
                     const std::string& labels = "") {
  for (const telemetry::MetricSnapshot& s : registry.scrape()) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  ADD_FAILURE() << "series not found: " << name << "{" << labels << "}";
  return 0.0;
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

// A sink shared by a seed sweep exports the same bits whatever the pool
// size and however the seeds land on threads, and its counters are the
// per-seed results summed.
TEST_F(SimRunnerTest, SharedTelemetryIsIdenticalForAnyPoolSize) {
  const scenarios::Scenario& sc = scenarios::scenario("S2");
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  const core::Deployment deployment = scheduler.schedule(sc.services).value().deployment;
  const std::vector<std::uint64_t> seeds = {11, 23, 47};

  struct Export {
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>> metrics;
    std::string events;
  };
  std::vector<Export> exports;
  for (const std::size_t workers : {1, 2, 4}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      telemetry::Telemetry telemetry({.request_events = true});
      SimulationOptions options;
      options.duration_ms = 15'000.0;
      options.telemetry = &telemetry;
      ThreadPool pool(workers);
      const auto results = run_seeds(deployment, sc.services, perf_, options, seeds, pool);
      const telemetry::MetricsRegistry& m = telemetry.metrics();
      exports.push_back({scrape_bits(m), telemetry::to_json_lines(telemetry.events())});

      double events = 0.0;
      double batches = 0.0;
      for (const SimulationResult& result : results) {
        events += static_cast<double>(result.events_processed);
        for (const ServiceOutcome& outcome : result.services) {
          batches += static_cast<double>(outcome.batches);
        }
      }
      EXPECT_EQ(scraped_value(m, "parva_sim_events_total"), events);
      EXPECT_EQ(scraped_value(m, "parva_sim_batches_total"), batches);
      for (std::size_t s = 0; s < sc.services.size(); ++s) {
        const std::string labels = "service=\"" + std::to_string(sc.services[s].id) + "\"";
        double requests = 0.0;
        double shed = 0.0;
        for (const SimulationResult& result : results) {
          requests += static_cast<double>(result.services[s].requests);
          shed += static_cast<double>(result.services[s].shed_requests);
        }
        EXPECT_EQ(scraped_value(m, "parva_sim_requests_total", labels), requests) << labels;
        EXPECT_EQ(scraped_value(m, "parva_sim_shed_requests_total", labels), shed) << labels;
      }
    }
  }
  // Seed order: the first seed's run alone logs a prefix of the merged log.
  telemetry::Telemetry first({.request_events = true});
  SimulationOptions first_options;
  first_options.duration_ms = 15'000.0;
  first_options.telemetry = &first;
  first_options.seed = seeds[0];
  ClusterSimulation(deployment, sc.services, perf_).run(first_options);
  const std::string first_events = telemetry::to_json_lines(first.events());
  ASSERT_FALSE(first_events.empty());
  EXPECT_TRUE(exports[0].events.starts_with(first_events));
  EXPECT_GT(exports[0].events.size(), first_events.size());

  for (std::size_t i = 1; i < exports.size(); ++i) {
    EXPECT_TRUE(exports[i].metrics == exports[0].metrics) << "sweep " << i;
    EXPECT_TRUE(exports[i].events == exports[0].events) << "sweep " << i;
  }
}

TEST_F(SimRunnerTest, EmptySweepIsEmpty) {
  EXPECT_TRUE(run_seeds(deployment_, services_, perf_, base_, {}, pool_).empty());
}

}  // namespace
}  // namespace parva::serving

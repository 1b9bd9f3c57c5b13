// Differential battery for the sharded DES engine: for every scenario,
// fault schedule, and execution mode, a run with N shards
// must be byte-identical to the single-shard run — same counters, same
// latency sample bit patterns, same telemetry exports. `ctest -R
// parallel_engine` is the determinism gate the engine's parallelism rides
// on (DESIGN.md §4.5).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/parvagpu.hpp"
#include "gpu/fault_plan.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"
#include "serving/shard_engine.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/core/test_support.hpp"

namespace parva::serving {
namespace {

using core::testing::builtin_profiles;
using core::testing::service;

const std::vector<int> kShardCounts = {1, 2, 4, 7};

/// Every bit the simulation produced, including the failure-phase split and
/// the compliance timeline. Execution metadata (shard_events/shard_busy_ms)
/// is deliberately excluded: it describes how the run executed, not what it
/// computed.
std::vector<std::uint64_t> fingerprint(const SimulationResult& result) {
  std::vector<std::uint64_t> print = {result.events_processed, result.requests_shed,
                                      std::bit_cast<std::uint64_t>(result.internal_slack),
                                      std::bit_cast<std::uint64_t>(result.failure_at_ms),
                                      std::bit_cast<std::uint64_t>(result.recovered_at_ms)};
  for (double activity : result.unit_activity) {
    print.push_back(std::bit_cast<std::uint64_t>(activity));
  }
  print.push_back(result.requests_rejected);
  print.push_back(result.requests_evicted);
  print.push_back(result.generated_tokens);
  for (double kv_peak : result.unit_kv_peak) {
    print.push_back(std::bit_cast<std::uint64_t>(kv_peak));
  }
  for (const ServiceOutcome& outcome : result.services) {
    print.push_back(static_cast<std::uint64_t>(outcome.service_id));
    print.push_back(outcome.requests);
    print.push_back(outcome.batches);
    print.push_back(outcome.violated_batches);
    print.push_back(outcome.shed_requests);
    print.push_back(outcome.rejected_requests);
    print.push_back(outcome.evicted_requests);
    print.push_back(outcome.generated_tokens);
    print.push_back(std::bit_cast<std::uint64_t>(outcome.measured_rate));
    for (double sample : outcome.request_latency_ms.values()) {
      print.push_back(std::bit_cast<std::uint64_t>(sample));
    }
    for (double sample : outcome.prefill_latency_ms.values()) {
      print.push_back(std::bit_cast<std::uint64_t>(sample));
    }
    for (double sample : outcome.decode_latency_ms.values()) {
      print.push_back(std::bit_cast<std::uint64_t>(sample));
    }
  }
  for (const PhaseStats* phase :
       {&result.pre_failure, &result.degraded, &result.post_recovery}) {
    print.push_back(phase->batches);
    print.push_back(phase->violated_batches);
    print.push_back(phase->requests);
    print.push_back(phase->violated_requests);
    print.push_back(phase->shed_requests);
  }
  for (const TimelineBucket& bucket : result.timeline) {
    print.push_back(std::bit_cast<std::uint64_t>(bucket.t_ms));
    print.push_back(bucket.batches);
    print.push_back(bucket.violated_batches);
    print.push_back(bucket.shed_requests);
  }
  return print;
}

core::Deployment schedule(const std::vector<core::ServiceSpec>& services) {
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  return scheduler.schedule(services).value().deployment;
}

SimulationOptions base_options() {
  SimulationOptions opts;
  opts.duration_ms = 800.0;
  opts.warmup_ms = 200.0;
  opts.seed = 42;
  opts.timeline_bucket_ms = 100.0;
  return opts;
}

TEST(ParallelEngineTest, ShardCountsAreByteIdenticalAcrossScenarios) {
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  for (const scenarios::Scenario& scenario : scenarios::all_scenarios()) {
    const core::Deployment deployment = schedule(scenario.services);
    ClusterSimulation sim(deployment, scenario.services, perf);
    SimulationOptions opts = base_options();
    const std::vector<std::uint64_t> serial = fingerprint(sim.run(opts));
    for (const int shards : kShardCounts) {
      opts.shards = shards;
      EXPECT_EQ(serial, fingerprint(sim.run(opts)))
          << scenario.name << " diverged at shards=" << shards;
    }
  }
}

TEST(ParallelEngineTest, LlmScenarioIsByteIdenticalAcrossShardsAndPolicies) {
  // The S7 generative scenario exercises every new event kind (Prefill,
  // Decode chains), the KV ledger, bursty arrivals, and both admission
  // policies — all of which must hold the §4.5 contract: shards {1, 2, 4}
  // produce bit-equal fingerprints, including the new LLM fields
  // (rejected/evicted counts, generated tokens, per-phase samples,
  // per-unit KV peaks).
  const scenarios::Scenario& scenario = scenarios::llm_scenario();
  core::ParvaGpuScheduler scheduler([] {
    perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
    profiler::Profiler profiler(perf);
    return profiler.profile_all(perfmodel::ModelCatalog::with_llm().names());
  }());
  const core::Deployment deployment = scheduler.schedule(scenario.services).value().deployment;
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
  ClusterSimulation sim(deployment, scenario.services, perf);

  for (const auto admission : {LlmAdmissionPolicy::kReject, LlmAdmissionPolicy::kEvict}) {
    SimulationOptions opts = base_options();
    opts.duration_ms = 6'000.0;
    opts.warmup_ms = 500.0;
    opts.arrivals = ArrivalProcess::kBursty;
    opts.llm.admission = admission;
    const std::vector<std::uint64_t> serial = fingerprint(sim.run(opts));
    for (const int shards : {2, 4}) {
      opts.shards = shards;
      EXPECT_EQ(serial, fingerprint(sim.run(opts)))
          << "admission=" << to_string(admission) << " shards=" << shards;
    }
  }
}

TEST(ParallelEngineTest, PoissonArrivalsAreByteIdentical) {
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  const scenarios::Scenario& scenario = scenarios::scenario("S3");
  const core::Deployment deployment = schedule(scenario.services);
  ClusterSimulation sim(deployment, scenario.services, perf);
  SimulationOptions opts = base_options();
  opts.arrivals = ArrivalProcess::kPoisson;
  opts.seed = 1234;
  const std::vector<std::uint64_t> serial = fingerprint(sim.run(opts));
  for (const int shards : kShardCounts) {
    opts.shards = shards;
    EXPECT_EQ(serial, fingerprint(sim.run(opts))) << "shards=" << shards;
  }
}

class ParallelEngineFaultTest : public ::testing::Test {
 protected:
  ParallelEngineFaultTest() : deployment_(schedule(services_)), perf_(perfmodel::ModelCatalog::builtin()) {}

  /// Fault schedule spanning the run: one early loss, then an equal-time
  /// double loss (the canonical-key tie-break must commute across shards),
  /// with two dormant replacements activating later.
  SimulationOptions fault_options() {
    SimulationOptions opts;
    opts.duration_ms = 2'000.0;
    opts.warmup_ms = 500.0;
    opts.seed = 77;
    opts.timeline_bucket_ms = 250.0;
    opts.fault_plan = &plan_;
    opts.activations = {{0, 1'800.0}, {1, 1'800.0}};
    return opts;
  }

  std::vector<core::ServiceSpec> services_ = {service(0, "resnet-50", 205, 4000),
                                              service(1, "vgg-19", 397, 1500),
                                              service(2, "mobilenetv2", 167, 8000),
                                              service(3, "bert-large", 400, 600)};
  core::Deployment deployment_;
  perfmodel::AnalyticalPerfModel perf_;
  gpu::FaultPlan plan_ = [] {
    gpu::FaultPlan plan;
    plan.gpu_failures = {{900.0, 0, 79}, {1'400.0, 1, 79}, {1'400.0, 2, 79}};
    return plan;
  }();
};

TEST_F(ParallelEngineFaultTest, FaultSchedulesAreByteIdentical) {
  ASSERT_GE(deployment_.gpu_count, 2);
  ClusterSimulation sim(deployment_, services_, perf_);
  SimulationOptions opts = fault_options();
  const SimulationResult serial_result = sim.run(opts);
  EXPECT_GT(serial_result.requests_shed, 0u);  // the faults actually bite
  const std::vector<std::uint64_t> serial = fingerprint(serial_result);
  for (const int shards : kShardCounts) {
    opts.shards = shards;
    EXPECT_EQ(serial, fingerprint(sim.run(opts))) << "shards=" << shards;
  }
}

TEST_F(ParallelEngineFaultTest, ThreadPoolExecutionMatchesSequential) {
  // The actual parallel path: shards advancing on pool workers must equal
  // the same decomposition run sequentially (and therefore the single-shard
  // run). Runs under the tsan preset as well, which checks that the only
  // synchronisation — the window-barrier joins — is sufficient.
  ClusterSimulation sim(deployment_, services_, perf_);
  SimulationOptions opts = fault_options();
  const std::vector<std::uint64_t> serial = fingerprint(sim.run(opts));
  ThreadPool pool(3);
  opts.shard_pool = &pool;
  for (const int shards : {2, 4, 7}) {
    opts.shards = shards;
    EXPECT_EQ(serial, fingerprint(sim.run(opts))) << "pooled shards=" << shards;
  }
}

TEST_F(ParallelEngineFaultTest, TelemetryExportsAreByteIdentical) {
  // All three exporters — Prometheus text, JSON-lines event log, CSV
  // summary — must emit identical bytes for every shard count, with
  // per-batch events enabled (the highest-volume record stream).
  ClusterSimulation sim(deployment_, services_, perf_);
  auto exports_for = [&](int shards, ThreadPool* pool) {
    telemetry::Telemetry telemetry({.max_events = 1 << 16, .request_events = true});
    SimulationOptions opts = fault_options();
    opts.telemetry = &telemetry;
    opts.shards = shards;
    opts.shard_pool = pool;
    const SimulationResult result = sim.run(opts);
    return std::vector<std::string>{telemetry::to_prometheus(telemetry.metrics()),
                                    telemetry::to_json_lines(telemetry.events()),
                                    telemetry::to_csv_summary(telemetry.metrics())};
  };
  const std::vector<std::string> serial = exports_for(1, nullptr);
  EXPECT_NE(serial[1].find("gpu_failure"), std::string::npos);
  ThreadPool pool(3);
  for (const int shards : {2, 4, 7}) {
    EXPECT_EQ(serial, exports_for(shards, nullptr)) << "shards=" << shards;
    EXPECT_EQ(serial, exports_for(shards, &pool)) << "pooled shards=" << shards;
  }
}

TEST_F(ParallelEngineFaultTest, TelemetryDoesNotPerturbResults) {
  // Attaching a sink must not change a sharded run's outputs (the sharded
  // record-buffering path is new code; the contract from telemetry.hpp
  // still holds).
  ClusterSimulation sim(deployment_, services_, perf_);
  SimulationOptions opts = fault_options();
  opts.shards = 4;
  const std::vector<std::uint64_t> bare = fingerprint(sim.run(opts));
  telemetry::Telemetry telemetry({.request_events = true});
  opts.telemetry = &telemetry;
  EXPECT_EQ(bare, fingerprint(sim.run(opts)));
}

TEST(ParallelEnginePartitionTest, PartitionIsDeterministicAndBalanced) {
  const std::vector<double> rates = {19, 353, 308, 276, 460, 677, 393, 281, 829, 410, 354};
  const std::vector<int> assignment = partition_services(rates, 4);
  EXPECT_EQ(assignment, partition_services(rates, 4));  // pure function
  std::vector<double> load(4, 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < rates.size(); ++s) {
    ASSERT_GE(assignment[s], 0);
    ASSERT_LT(assignment[s], 4);
    load[static_cast<std::size_t>(assignment[s])] += rates[s];
    total += rates[s];
  }
  // LPT keeps the heaviest shard within a modest factor of the mean.
  for (const double l : load) EXPECT_LE(l, 1.5 * total / 4.0);
  // One shard degenerates to the identity partition.
  EXPECT_EQ(partition_services(rates, 1), std::vector<int>(rates.size(), 0));
  // More shards than services: every service still lands somewhere valid.
  for (const int k : partition_services({5.0, 3.0}, 7)) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 7);
  }
}

TEST(ParallelEnginePartitionTest, ShardEventCountsPartitionTheRun) {
  // shard_events is execution metadata but still deterministic: the counts
  // sum to events_processed minus the coordinator-delivered failures, and
  // repeat run-to-run.
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  const scenarios::Scenario& scenario = scenarios::scenario("S2");
  const core::Deployment deployment = schedule(scenario.services);
  ClusterSimulation sim(deployment, scenario.services, perf);
  SimulationOptions opts = base_options();
  opts.shards = 4;
  const SimulationResult a = sim.run(opts);
  const SimulationResult b = sim.run(opts);
  ASSERT_EQ(a.shard_events.size(), 4u);
  EXPECT_EQ(a.shard_events, b.shard_events);
  std::size_t sum = 0;
  for (const std::size_t n : a.shard_events) {
    EXPECT_GT(n, 0u);  // LPT gave every shard real work on S2
    sum += n;
  }
  EXPECT_EQ(sum, a.events_processed);  // no faults in this run
  ASSERT_EQ(a.shard_busy_ms.size(), 4u);
}

}  // namespace
}  // namespace parva::serving

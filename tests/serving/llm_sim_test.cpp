// Behavioural tests for the generative-LLM workload class (DESIGN.md
// §4.7): the KV-cache ledger, the reject and evict admission policies, the
// FIFO victim order under evict, the bursty arrival process, and the
// degenerate contract that a zero-token LLM descriptor is byte-identical
// to the fixed-latency path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/parvagpu.hpp"
#include "gpu/arch.hpp"
#include "perfmodel/llm_model.hpp"
#include "perfmodel/model_catalog.hpp"
#include "profiler/profiler.hpp"
#include "scenarios/scenarios.hpp"
#include "serving/cluster_sim.hpp"
#include "serving/llm_engine.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/core/test_support.hpp"

namespace parva::serving {
namespace {

/// Profile set over the union catalog (CNN rows + LLM rows) so schedules
/// can place llama services.
const profiler::ProfileSet& llm_profiles() {
  static const profiler::ProfileSet profiles = [] {
    perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
    profiler::Profiler profiler(perf);
    return profiler.profile_all(perfmodel::ModelCatalog::with_llm().names());
  }();
  return profiles;
}

core::ServiceSpec llm_service(int id, const std::string& model, double slo_ms, double rate,
                              const core::LlmWorkload& llm) {
  core::ServiceSpec spec{id, model, slo_ms, rate, {}};
  spec.llm = llm;
  return spec;
}

/// Everything the simulation computed, bit-exact. Mirrors the parallel
/// engine battery's fingerprint but lives here so this suite stays
/// standalone.
std::vector<std::uint64_t> fingerprint(const SimulationResult& result) {
  std::vector<std::uint64_t> print = {result.events_processed, result.requests_shed,
                                      result.requests_rejected, result.requests_evicted,
                                      result.generated_tokens};
  print.push_back(std::bit_cast<std::uint64_t>(result.internal_slack));
  for (double kv_peak : result.unit_kv_peak) {
    print.push_back(std::bit_cast<std::uint64_t>(kv_peak));
  }
  for (const ServiceOutcome& outcome : result.services) {
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
  return print;
}

/// FNV-1a over the fingerprint's words, each taken low byte first: one
/// number a test can pin.
std::uint64_t digest(const std::vector<std::uint64_t>& print) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint64_t word : print) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

class LlmSimTest : public ::testing::Test {
 protected:
  core::Deployment schedule(const std::vector<core::ServiceSpec>& services) {
    core::ParvaGpuScheduler scheduler(llm_profiles());
    return scheduler.schedule(services).value().deployment;
  }

  SimulationOptions fast_options(std::uint64_t seed = 42) {
    SimulationOptions options;
    options.duration_ms = 6'000.0;
    options.warmup_ms = 500.0;
    options.seed = seed;
    return options;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::with_llm()};
};

// Satellite bugfix-sweep test: an engaged-but-empty LlmWorkload (zero
// prompt tokens, zero generation, kv_bytes_per_token = 0) must degenerate
// to the fixed-latency path bit-for-bit. prefill_share and prompt_scale
// both collapse to exactly 1.0 (no floating-point drift), no token RNG is
// drawn, and the Prefill event completes the batch through the same
// accounting as kBatchComplete.
TEST_F(LlmSimTest, ZeroTokenLlmWorkloadDegeneratesToFixedLatencyPath) {
  const std::vector<core::ServiceSpec> plain = {
      core::testing::service(0, "resnet-50", 205, 829),
      core::testing::service(1, "vgg-19", 397, 354)};
  std::vector<core::ServiceSpec> degenerate = plain;
  degenerate[0].llm = core::LlmWorkload{0.0, 0.0, 8192, 0.0, 0.0, 2048, 0.0};

  const core::Deployment deployment = schedule(plain);
  ClusterSimulation fixed(deployment, plain, perf_);
  ClusterSimulation llm(deployment, degenerate, perf_);

  for (const auto arrivals :
       {ArrivalProcess::kDeterministic, ArrivalProcess::kPoisson, ArrivalProcess::kBursty}) {
    SimulationOptions opts = fast_options(7);
    opts.arrivals = arrivals;
    const SimulationResult a = fixed.run(opts);
    const SimulationResult b = llm.run(opts);
    EXPECT_EQ(fingerprint(a), fingerprint(b))
        << "arrivals=" << static_cast<int>(arrivals);
    // And the degenerate run reports no generative activity at all.
    EXPECT_EQ(b.requests_rejected, 0u);
    EXPECT_EQ(b.requests_evicted, 0u);
    EXPECT_EQ(b.generated_tokens, 0u);
    for (const double kv_peak : b.unit_kv_peak) {
      EXPECT_EQ(kv_peak, 0.0);
    }
  }
}

// A genuinely generative run produces tokens, per-phase samples, and a
// KV-peak trace bounded by capacity — and is exactly repeatable.
TEST_F(LlmSimTest, GenerativeRunProducesTokensAndBoundedKvPeaks) {
  const scenarios::Scenario& scenario = scenarios::llm_scenario();
  const core::Deployment deployment = schedule(scenario.services);
  ClusterSimulation sim(deployment, scenario.services, perf_);
  SimulationOptions opts = fast_options();
  opts.arrivals = ArrivalProcess::kBursty;
  const SimulationResult result = sim.run(opts);

  EXPECT_GT(result.generated_tokens, 0u);
  bool saw_pressure = false;
  for (const double kv_peak : result.unit_kv_peak) {
    EXPECT_GE(kv_peak, 0.0);
    EXPECT_LE(kv_peak, 1.0);  // the ledger never overcommits capacity
    saw_pressure = saw_pressure || kv_peak > 0.5;
  }
  EXPECT_TRUE(saw_pressure) << "S7 should stress at least one instance's KV capacity";
  for (const ServiceOutcome& outcome : result.services) {
    if (outcome.generated_tokens == 0) continue;
    EXPECT_FALSE(outcome.prefill_latency_ms.empty());
    EXPECT_FALSE(outcome.decode_latency_ms.empty());
    // Decode-phase latency includes queueing for decode slots plus the
    // whole token chain; it dominates end-to-end latency for chat shapes.
    EXPECT_GT(outcome.decode_latency_ms.mean(), 0.0);
  }
  EXPECT_EQ(fingerprint(result), fingerprint(sim.run(opts))) << "same seed must replay";
}

// Reject and evict are different policies with different deterministic
// outcomes: reject refuses admission (never evicts), evict admits
// optimistically and pays with mid-decode victims. S7's pressure builds
// over tens of seconds and needs its native bursty arrivals, so this test
// runs the parvactl S7 defaults (28 s horizon, bursty).
TEST_F(LlmSimTest, RejectAndEvictProduceDifferentDeterministicOutcomes) {
  const scenarios::Scenario& scenario = scenarios::llm_scenario();
  EXPECT_TRUE(scenario.streaming) << "S7 is a streaming scenario";
  const core::Deployment deployment = schedule(scenario.services);
  ClusterSimulation sim(deployment, scenario.services, perf_);

  SimulationOptions opts;
  opts.duration_ms = 28'000.0;  // parvactl's simulate defaults
  opts.seed = 1234;
  opts.arrivals = ArrivalProcess::kBursty;
  opts.llm.admission = LlmAdmissionPolicy::kReject;
  const SimulationResult reject = sim.run(opts);
  opts.llm.admission = LlmAdmissionPolicy::kEvict;
  const SimulationResult evict = sim.run(opts);

  EXPECT_GT(reject.requests_rejected, 0u);
  EXPECT_EQ(reject.requests_evicted, 0u) << "reject never evicts";
  EXPECT_GT(evict.requests_evicted, 0u);
  EXPECT_NE(fingerprint(reject), fingerprint(evict));
}

// Under kEvict the victim is the oldest admitted resident batch. Victim
// order matters only with several batches resident at once (procs > 1)
// whose decode chains stagger, so a hand-built single 7g unit runs three
// MPS processes under heavy-tailed generation lengths. The digest pins the
// whole run, so a change of victim shows as a changed digest.
TEST_F(LlmSimTest, EvictionTakesTheOldestAdmittedBatchFirst) {
  // Captured from the engine that picked the resident batch with the
  // lowest admission stamp (7 requests evicted, 325 fingerprint words).
  constexpr std::uint64_t kFifoDigest = 0x2679dee4779c0dbdULL;
  core::DeployedUnit unit;
  unit.service_id = 0;
  unit.model = "llama-7b";
  unit.gpu_index = 0;
  unit.gpc_grant = 7.0;
  unit.batch = 8;
  unit.procs = 3;
  unit.planned_throughput = unit.actual_throughput = 6.0;
  unit.planned_latency_ms = unit.actual_latency_ms = 6'000.0;
  core::Deployment deployment;
  deployment.framework = "test";
  deployment.uses_mig = true;
  deployment.gpu_count = 1;
  deployment.units = {unit};

  // KV sized so ~2.5 full batches fit: evictions always have at least one
  // non-self candidate. Gen sigma 1.0 gives the heavy tail that staggers
  // the decode chains.
  const std::vector<core::ServiceSpec> services = {llm_service(
      0, "llama-7b", 30'000, 5.0,
      core::LlmWorkload{400.0, 0.6, 2048, 300.0, 1.0, 2048, 3.0e6})};
  ClusterSimulation sim(deployment, services, perf_);

  SimulationOptions opts;  // default 20 s horizon
  opts.arrivals = ArrivalProcess::kBursty;
  opts.llm.admission = LlmAdmissionPolicy::kEvict;
  const SimulationResult result = sim.run(opts);

  EXPECT_GT(result.requests_evicted, 0u);
  EXPECT_EQ(digest(fingerprint(result)), kFifoDigest);
}

// One decode step can evict another resident batch and then finish its
// own: the eviction is emitted first, and the merge that orders exported
// records must keep it first. Two single-request processes share a ledger
// that holds both prompts (2 x 100 tokens) but not a prompt's decode chunk
// on top (20 more), so nearly every batch's only decode step evicts the
// other batch before completing.
TEST_F(LlmSimTest, EvictionThenCompletionInOneDecodeStepKeepsEmissionOrder) {
  core::DeployedUnit unit;
  unit.service_id = 0;
  unit.model = "llama-7b";
  unit.gpu_index = 0;
  unit.gpc_grant = 7.0;
  unit.batch = 1;
  unit.procs = 2;
  unit.planned_throughput = unit.actual_throughput = 10.0;
  unit.planned_latency_ms = unit.actual_latency_ms = 200.0;
  core::Deployment deployment;
  deployment.framework = "test";
  deployment.uses_mig = true;
  deployment.gpu_count = 1;
  deployment.units = {unit};
  const double weights_gib = perfmodel::LlmCatalog::builtin().find("llama-7b")->weight_gib * 2;
  const double ledger_bytes = (gpu::instance_memory_gib(7) - weights_gib) * 1024.0 * 1024.0 * 1024.0;
  const std::vector<core::ServiceSpec> services = {llm_service(
      0, "llama-7b", 30'000, 20.0,
      core::LlmWorkload{100.0, 0.0, 2048, 20.0, 0.0, 2048, ledger_bytes / 210.0})};
  ClusterSimulation sim(deployment, services, perf_);

  telemetry::Telemetry telemetry({.request_events = true});
  SimulationOptions opts = fast_options();
  opts.warmup_ms = 0.0;
  opts.llm.admission = LlmAdmissionPolicy::kEvict;
  opts.telemetry = &telemetry;
  const SimulationResult result = sim.run(opts);
  EXPECT_GT(result.requests_evicted, 0u);

  const std::vector<telemetry::Event> events = telemetry.events().snapshot();
  std::size_t steps = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    const bool same_time = events[i].t_ms == events[i + 1].t_ms;
    if (same_time && events[i].kind == telemetry::EventKind::kLlmEviction &&
        events[i + 1].kind == telemetry::EventKind::kBatchCompleted) {
      ++steps;
    }
    EXPECT_FALSE(same_time && events[i].kind == telemetry::EventKind::kBatchCompleted &&
                 events[i + 1].kind == telemetry::EventKind::kLlmEviction)
        << "completion exported before the eviction its decode step made, t="
        << events[i].t_ms;
  }
  EXPECT_GT(steps, 0u);
}

// Bursty arrivals preserve the offered rate (the slow inter-burst rate is
// chosen to compensate the bursts) while producing burstier latency than
// the deterministic pacing.
TEST_F(LlmSimTest, BurstyArrivalsPreserveMeanRate) {
  const std::vector<core::ServiceSpec> services = {
      core::testing::service(0, "resnet-50", 205, 800)};
  core::ParvaGpuScheduler scheduler(core::testing::builtin_profiles());
  const core::Deployment deployment = scheduler.schedule(services).value().deployment;
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  ClusterSimulation sim(deployment, services, perf);

  SimulationOptions opts = fast_options();
  opts.duration_ms = 20'000.0;
  opts.arrivals = ArrivalProcess::kBursty;
  const SimulationResult bursty = sim.run(opts);
  EXPECT_NEAR(bursty.services[0].measured_rate, 800.0, 0.15 * 800.0);

  opts.arrivals = ArrivalProcess::kDeterministic;
  const SimulationResult paced = sim.run(opts);
  EXPECT_GT(bursty.services[0].request_latency_ms.p99(),
            paced.services[0].request_latency_ms.p99());
}

}  // namespace
}  // namespace parva::serving

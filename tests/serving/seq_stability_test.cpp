// Regression pin for the engine's former latent serial assumption: event
// sequence numbers used to come from a single enqueue-order counter
// (EventQueue::issue_seq), so the seq a given arrival received depended on
// every other source's interleaving — correct serially, impossible to
// reproduce per-shard. Canonical stream keys (shard_engine.hpp) make the
// seq of the k-th event of a source a pure function of (source, k). These
// tests pin that contract directly at the stream level and end-to-end.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/parvagpu.hpp"
#include "serving/cluster_sim.hpp"
#include "serving/shard_engine.hpp"
#include "tests/core/test_support.hpp"

namespace parva::serving {
namespace {

using core::testing::builtin_profiles;
using core::testing::service;

TEST(SeqStabilityTest, CanonicalKeysArePureFunctionsOfTheSource) {
  // Layout: faults < activations < arrivals < completions, and within a
  // stream strictly by occurrence.
  EXPECT_LT(canonical_seq(kFaultStreamId, 5), canonical_seq(kActivationStreamId, 0));
  EXPECT_LT(canonical_seq(kActivationStreamId, 99), canonical_seq(arrival_stream_id(0), 0));
  EXPECT_LT(canonical_seq(arrival_stream_id(3), 1'000'000),
            canonical_seq(completion_stream_id(4, 0), 0));
  EXPECT_LT(canonical_seq(arrival_stream_id(2), 7), canonical_seq(arrival_stream_id(2), 8));
  // The same (stream, counter) always yields the same key.
  SeqStream a(arrival_stream_id(1));
  SeqStream b(arrival_stream_id(1));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.issued(), 100u);
}

TEST(SeqStabilityTest, ArrivalSeqStreamsAreIdenticalUnderAnyPartition) {
  // One arrival stream per service, keyed by the service's global index,
  // hands out the same keys whether all five services live on one shard
  // or are split across two — regardless of how the shards interleave
  // their draws.
  std::vector<SeqStream> mono;
  for (std::size_t s = 0; s < 5; ++s) mono.emplace_back(arrival_stream_id(s));
  std::vector<SeqStream> shard_a = {SeqStream(arrival_stream_id(0)),
                                    SeqStream(arrival_stream_id(2)),
                                    SeqStream(arrival_stream_id(4))};
  std::vector<SeqStream> shard_b = {SeqStream(arrival_stream_id(1)),
                                    SeqStream(arrival_stream_id(3))};
  Rng rng(7);
  std::vector<int> armed(5, 0);
  for (int step = 0; step < 500; ++step) {
    const auto s = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const std::uint64_t expected = mono[s].next();
    std::vector<SeqStream>& shard = s % 2 == 0 ? shard_a : shard_b;
    EXPECT_EQ(shard[s / 2].next(), expected);
    ++armed[s];
    // The key is the pure function (arrival stream of s, occurrences so far).
    EXPECT_EQ(expected, canonical_seq(arrival_stream_id(s),
                                      static_cast<std::uint64_t>(armed[s]) - 1));
  }
}

TEST(SeqStabilityTest, PerShardArrivalGenerationPreservesEngineSeqs) {
  // End-to-end pin: per-service arrival counts (the observable face of seq
  // assignment — a shifted seq reorders a tie and changes who gets batched
  // with whom) are bit-stable across shard counts, including a service
  // whose rate ties another's (the partition must not conflate them).
  const std::vector<core::ServiceSpec> services = {service(0, "resnet-50", 205, 900),
                                                   service(1, "vgg-19", 397, 900),
                                                   service(2, "mobilenetv2", 167, 1800),
                                                   service(3, "bert-large", 400, 450)};
  core::ParvaGpuScheduler scheduler(builtin_profiles());
  const core::Deployment deployment = scheduler.schedule(services).value().deployment;
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  ClusterSimulation sim(deployment, services, perf);
  SimulationOptions opts;
  opts.duration_ms = 1'000.0;
  opts.warmup_ms = 200.0;
  opts.seed = 5;
  const SimulationResult serial = sim.run(opts);
  for (const int shards : {2, 3, 4, 7}) {
    opts.shards = shards;
    const SimulationResult sharded = sim.run(opts);
    ASSERT_EQ(serial.services.size(), sharded.services.size());
    for (std::size_t s = 0; s < serial.services.size(); ++s) {
      EXPECT_EQ(serial.services[s].requests, sharded.services[s].requests)
          << "service " << s << " shards " << shards;
      EXPECT_EQ(serial.services[s].request_latency_ms.values(),
                sharded.services[s].request_latency_ms.values())
          << "service " << s << " shards " << shards;
    }
    EXPECT_EQ(serial.events_processed, sharded.events_processed);
  }
}

}  // namespace
}  // namespace parva::serving

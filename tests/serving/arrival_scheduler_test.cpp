// Differential battery for the loser-tree arrival scheduler (DESIGN.md
// §4.6): the tree must select byte-identical winners to a flat argmin scan
// over the same slots, for any arm/retire sequence — equal-time seq
// tie-breaks included — both for arbitrary-slot schedules (the rebuild
// path) and for the engine's own earliest-only pattern (the champion
// replay path).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
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

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  return indices;
}

/// The oracle: O(size) argmin over the slots by (time, seq), or size() when
/// none is pending. This was the engine's small-shard path before the loser
/// tree replaced it.
std::size_t flat_earliest(const ArrivalStreams& streams) {
  const std::size_t n = streams.size();
  std::size_t best = n;
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < n; ++s) {
    if (streams.time(s) < best_time) {
      best_time = streams.time(s);
      best = s;
    }
  }
  if (best == n) return best;
  for (std::size_t s = best + 1; s < n; ++s) {
    if (streams.time(s) == best_time && streams.seq(s) < streams.seq(best)) best = s;
  }
  return best;
}

TEST(ArrivalSchedulerTest, ZeroServicesBuildValidSentinelOnlyStructures) {
  // A shard of a (shards > services) run binds an EMPTY service list. It
  // must come up as a valid sentinel-only tree where earliest() == size()
  // == 0, and the default-constructed (pre-bind) object must behave the
  // same.
  ArrivalStreams streams(iota_indices(0));
  EXPECT_EQ(streams.size(), 0u);
  EXPECT_EQ(streams.earliest(), 0u);
  ArrivalStreams unbound;
  EXPECT_EQ(unbound.size(), 0u);
  EXPECT_EQ(unbound.earliest(), 0u);
}

TEST(ArrivalSchedulerTest, MoreShardsThanServicesMatchesOneShard) {
  // End-to-end: 2 services over 4 shards leaves two shards service-less;
  // their empty arrival structures must be inert and the outputs
  // byte-identical to the 1-shard run.
  const std::vector<core::ServiceSpec> services = {service(0, "resnet-50", 205, 600),
                                                   service(1, "vgg-19", 397, 300)};
  const auto profiles = builtin_profiles();
  core::ParvaGpuScheduler scheduler(profiles);
  const auto scheduled = scheduler.schedule(services);
  ASSERT_TRUE(scheduled.ok());

  perfmodel::AnalyticalPerfModel perf{perfmodel::ModelCatalog::builtin()};
  ClusterSimulation sim(scheduled.value().deployment, services, perf);
  SimulationOptions options;
  options.duration_ms = 3'000.0;
  options.arrivals = ArrivalProcess::kPoisson;
  options.shards = 1;
  const SimulationResult base = sim.run(options);
  options.shards = 4;
  const SimulationResult sharded = sim.run(options);
  ASSERT_EQ(sharded.services.size(), base.services.size());
  for (std::size_t s = 0; s < base.services.size(); ++s) {
    EXPECT_EQ(sharded.services[s].requests, base.services[s].requests);
    EXPECT_EQ(sharded.services[s].violated_batches, base.services[s].violated_batches);
    EXPECT_EQ(sharded.services[s].request_latency_ms.values(),
              base.services[s].request_latency_ms.values());
  }
  EXPECT_EQ(sharded.events_processed, base.events_processed);
}

TEST(ArrivalSchedulerTest, TournamentBreaksTimeTiesBySeq) {
  // Stream ids decide equal-time matches, and a fully retired tree reports
  // nothing pending.
  ArrivalStreams streams(iota_indices(3));
  streams.arm(2, 10.0);
  streams.arm(0, 10.0);
  streams.arm(1, 10.0);
  EXPECT_EQ(streams.earliest(), 0u);
  streams.retire(0);
  EXPECT_EQ(streams.earliest(), 1u);
  streams.arm(0, 5.0);  // strictly earlier time wins over any seq
  EXPECT_EQ(streams.earliest(), 0u);
  streams.retire(0);
  streams.retire(1);
  streams.retire(2);
  EXPECT_EQ(streams.earliest(), 3u);  // nothing pending
}

TEST(ArrivalSchedulerTest, NonPowerOfTwoSlotCountsFillWithSentinels) {
  // Spare tournament leaves (5 slots over an 8-leaf tree) must never win.
  ArrivalStreams streams(iota_indices(5));
  EXPECT_EQ(streams.earliest(), 5u);
  streams.arm(4, 1.0);  // the last real slot, adjacent to the sentinels
  EXPECT_EQ(streams.earliest(), 4u);
  streams.retire(4);
  EXPECT_EQ(streams.earliest(), 5u);
}

TEST(ArrivalSchedulerTest, RandomOpsMatchFlatOracleIncludingTies) {
  // The property the engine's determinism rides on: after every operation
  // of a random arm/retire schedule, the tree's earliest() == the flat
  // oracle's. Times are drawn from a SMALL integer set so equal-time
  // collisions (the seq tie-break path) occur constantly.
  for (const std::size_t slots :
       {1u, 2u, 3u, 6u, 7u, 11u, 16u, 17u, 64u, 192u, 197u, 413u}) {
    ArrivalStreams tree(iota_indices(slots));
    Rng rng(0xA771 + slots);
    std::vector<bool> pending(slots, false);
    for (int step = 0; step < 4'000; ++step) {
      const auto s = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(slots) - 1));
      if (pending[s] && rng.next_double() < 0.5) {
        tree.retire(s);
        pending[s] = false;
      } else {
        tree.arm(s, static_cast<double>(rng.uniform_int(0, 31)));
        pending[s] = true;
      }
      ASSERT_EQ(tree.earliest(), flat_earliest(tree))
          << "slots=" << slots << " step=" << step;
    }
  }
}

TEST(ArrivalSchedulerTest, EarliestOnlyScheduleMatchesFlatOracle) {
  // The engine's own pattern: take the earliest slot, then retire it or
  // re-arm it at or after its current time (a zero gap re-arms it into a
  // tie). Only the champion changes between calls, so this drives the
  // leaf-to-root replay; when everything has retired, re-arming every slot
  // drives the rebuild again.
  for (const std::size_t slots : {1u, 6u, 11u, 16u, 17u, 192u, 413u}) {
    ArrivalStreams tree(iota_indices(slots));
    Rng rng(0xE4 + slots);
    auto arm_all = [&](double now) {
      for (std::size_t s = 0; s < slots; ++s) {
        tree.arm(s, now + static_cast<double>(rng.uniform_int(0, 7)));
      }
    };
    arm_all(0.0);
    std::size_t retired = 0;
    for (int step = 0; step < 6'000; ++step) {
      const std::size_t s = tree.earliest();
      ASSERT_EQ(s, flat_earliest(tree)) << "slots=" << slots << " step=" << step;
      if (s == slots) {
        arm_all(static_cast<double>(step));
        continue;
      }
      const double now = tree.time(s);
      if (rng.next_double() < 0.05) {
        tree.retire(s);
        ++retired;
      } else {
        tree.arm(s, now + static_cast<double>(rng.uniform_int(0, 3)));
      }
    }
    EXPECT_GT(retired, 0u) << "slots=" << slots;
  }
}

TEST(ArrivalSchedulerTest, DrainOrderMatchesFlatOracle) {
  // Pop-everything equivalence: repeatedly retiring the earliest slot must
  // walk the tree through the oracle's total order.
  const std::size_t slots = 41;
  ArrivalStreams tree(iota_indices(slots));
  Rng rng(99);
  for (std::size_t s = 0; s < slots; ++s) {
    tree.arm(s, static_cast<double>(rng.uniform_int(0, 7)));  // dense ties
  }
  for (std::size_t popped = 0; popped < slots; ++popped) {
    const std::size_t expected = flat_earliest(tree);
    ASSERT_LT(expected, slots);
    ASSERT_EQ(tree.earliest(), expected) << "pop " << popped;
    tree.retire(expected);
  }
  EXPECT_EQ(flat_earliest(tree), slots);
  EXPECT_EQ(tree.earliest(), slots);
}

}  // namespace
}  // namespace parva::serving

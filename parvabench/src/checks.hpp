// Output checks and digests. Every check returns one line per violation;
// an empty list means the output is correct.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan.hpp"
#include "core/service.hpp"
#include "serving/cluster_sim.hpp"

namespace parvabench {

/// No GPU holds more than 7 GPCs; every placement is legal, matches its
/// segment's size, and overlaps no other placement on its GPU.
std::vector<std::string> check_plan(const parva::core::DeploymentPlan& plan);

/// Every service's placed capacity covers its request rate, and no segment
/// belongs to a service outside `services`.
std::vector<std::string> check_capacity(const parva::core::DeploymentPlan& plan,
                                        std::span<const parva::core::ServiceSpec> services);

/// 64-bit FNV-1a, chained through `h`.
std::uint64_t fnv1a(std::string_view text, std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

/// Every deterministic count of a replay, per service, plus the event count
/// and the batch-weighted compliance. Two replays of one input agree on it
/// for every shard count.
std::string replay_signature(const parva::serving::SimulationResult& result);

/// Request and shed counts per service: the replay's part of the digest.
std::string replay_counts(const parva::serving::SimulationResult& result);

/// Serving outcome of one or more replays, summed over fleets.
struct ServingTotals {
  double completed = 0.0;
  double offered = 0.0;  ///< completed + shed + rejected + evicted
  double missed = 0.0;   ///< completed past the SLO + shed + rejected + evicted
  double late = 0.0;     ///< completed past the SLO
  double batches = 0.0;
  double violated_batches = 0.0;
  double p99_over_slo_max = 0.0;

  void add(const parva::serving::SimulationResult& result,
           std::span<const parva::core::ServiceSpec> services);
  double compliance() const { return batches == 0.0 ? 1.0 : 1.0 - violated_batches / batches; }
  double miss_frac() const { return offered == 0.0 ? 0.0 : missed / offered; }
};

}  // namespace parvabench

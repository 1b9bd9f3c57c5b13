#include "baselines/mig_serving.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>

#include "common/rng.hpp"
#include "core/parvagpu.hpp"
#include "core/plan.hpp"
#include "gpu/arch.hpp"

namespace parva::baselines {
namespace {

using gpu::kInstanceSizes;

/// Demand safety factor of the greedy scorer.
constexpr double kDemandSafety = 1.5;
/// Maximum refinement rounds of the fast algorithm.
constexpr int kMaxRefinementRounds = 8;
/// Seed of the slow algorithm's annealing stream.
constexpr std::uint64_t kAnnealingSeed = 1;

/// Per-service best single-process operating point per instance size.
struct ServiceProfile {
  const core::ServiceSpec* spec = nullptr;
  std::array<std::optional<core::Triplet>, kInstanceSizes.size()> best;  ///< by size index
};

/// The greedy's current sizing decision for one service.
struct Sizing {
  int size_index = -1;
  int count = 0;
};

int size_to_index(int gpcs) {
  for (std::size_t i = 0; i < kInstanceSizes.size(); ++i) {
    if (kInstanceSizes[i] == gpcs) return static_cast<int>(i);
  }
  return -1;
}

/// Packs the chosen instances of all services, first-fit decreasing.
core::DeploymentPlan pack(const std::vector<ServiceProfile>& profiles,
                          const std::vector<Sizing>& sizing) {
  std::vector<core::Segment> instances;
  for (std::size_t si = 0; si < profiles.size(); ++si) {
    const auto& triplet = profiles[si].best[static_cast<std::size_t>(sizing[si].size_index)];
    for (int c = 0; c < sizing[si].count; ++c) {
      instances.push_back(core::Segment{profiles[si].spec->id, *triplet});
    }
  }
  std::sort(instances.begin(), instances.end(), [](const core::Segment& a, const core::Segment& b) {
    return a.triplet.gpcs > b.triplet.gpcs;
  });
  core::DeploymentPlan plan;
  for (const core::Segment& instance : instances) {
    // MIG-serving packs with the driver's hardware slot order; the
    // fragmentation-aware slot preferences of Section III-E1 are ParvaGPU's
    // contribution and deliberately not granted to the baseline.
    bool placed = false;
    for (auto& gpu : plan.gpus()) {
      for (int start : gpu::legal_start_slots(instance.triplet.gpcs)) {
        if (gpu.try_place_at(instance.service_id, instance.triplet, start)) {
          placed = true;
          break;
        }
      }
      if (placed) break;
    }
    if (!placed) plan.place_first_fit(instance.service_id, instance.triplet);
  }
  return plan;
}

}  // namespace

Result<core::ScheduleResult> MigServingScheduler::schedule(
    std::span<const core::ServiceSpec> services) {
  const auto start = std::chrono::steady_clock::now();
  if (Status valid = core::validate(services, core::ServiceIdIndex(services)); !valid.ok()) {
    return valid.error();
  }

  // Collect the best single-process point per (service, size).
  std::vector<ServiceProfile> profiles;
  for (const core::ServiceSpec& spec : services) {
    const profiler::ProfileTable* table = profiles_->find(spec.model);
    if (table == nullptr) {
      return Error(ErrorCode::kNotFound, "no profile for model " + spec.model);
    }
    ServiceProfile profile;
    profile.spec = &spec;
    const double cap = spec.slo_latency_ms * core::kInternalLatencyFactor;
    bool any = false;
    for (const profiler::ProfilePoint& point : table->points()) {
      if (point.oom || point.procs != 1) continue;  // MIG-serving: no MPS
      if (point.latency_ms >= cap) continue;
      const int idx = size_to_index(point.gpcs);
      if (idx < 0) continue;
      auto& slot = profile.best[static_cast<std::size_t>(idx)];
      if (!slot.has_value() || point.throughput > slot->throughput) {
        slot = core::to_triplet(point);
        any = true;
      }
    }
    if (!any) {
      return Error(ErrorCode::kCapacityExceeded,
                   "MIG-serving: no instance size meets the SLO for " + spec.model);
    }
    profiles.push_back(std::move(profile));
  }

  // Initial greedy sizing: per service choose the size minimising total
  // GPCs for the safety-factored demand (ceil rounding over-allocates).
  auto sizing_for = [&](const ServiceProfile& profile, int idx) -> std::optional<Sizing> {
    const auto& triplet = profile.best[static_cast<std::size_t>(idx)];
    if (!triplet.has_value()) return std::nullopt;
    const double demand = kDemandSafety * profile.spec->request_rate;
    const int count = std::max(1, static_cast<int>(std::ceil(demand / triplet->throughput)));
    return Sizing{idx, count};
  };
  auto cost_of = [&](const Sizing& sizing) {
    return sizing.count * kInstanceSizes[static_cast<std::size_t>(sizing.size_index)];
  };

  std::vector<Sizing> sizing(profiles.size());
  for (std::size_t si = 0; si < profiles.size(); ++si) {
    std::optional<Sizing> best;
    for (std::size_t idx = 0; idx < kInstanceSizes.size(); ++idx) {
      auto candidate = sizing_for(profiles[si], static_cast<int>(idx));
      if (!candidate.has_value()) continue;
      if (!best.has_value() || cost_of(*candidate) < cost_of(*best) ||
          (cost_of(*candidate) == cost_of(*best) && candidate->count < best->count)) {
        best = candidate;
      }
    }
    sizing[si] = *best;  // guaranteed by the `any` check above
  }

  // Iterative refinement: try every (service, alternative size) move and
  // keep it when the whole-cluster re-pack uses fewer GPUs. This full
  // re-pack per candidate move is what makes the fast algorithm's
  // scheduling overhead grow steeply with the service count.
  core::DeploymentPlan plan = pack(profiles, sizing);
  for (int round = 0; round < kMaxRefinementRounds; ++round) {
    bool improved = false;
    for (std::size_t si = 0; si < profiles.size(); ++si) {
      for (std::size_t idx = 0; idx < kInstanceSizes.size(); ++idx) {
        if (static_cast<int>(idx) == sizing[si].size_index) continue;
        auto candidate = sizing_for(profiles[si], static_cast<int>(idx));
        if (!candidate.has_value()) continue;
        std::vector<Sizing> trial = sizing;
        trial[si] = *candidate;
        core::DeploymentPlan trial_plan = pack(profiles, trial);
        if (trial_plan.gpu_count() < plan.gpu_count()) {
          sizing = std::move(trial);
          plan = std::move(trial_plan);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }

  // The slow optimizer: simulated annealing over the sizing vector,
  // seeded from the fast solution. Cost = (GPUs, then allocated GPCs).
  // Bounded by iteration count; the published variants run for hours.
  if (options_.mode == MigServingMode::kSlow && !profiles.empty()) {
    Rng rng(kAnnealingSeed);
    auto cost = [](const core::DeploymentPlan& p) {
      return static_cast<double>(p.gpu_count()) * 1000.0 +
             static_cast<double>(p.total_allocated_gpcs());
    };
    std::vector<Sizing> current = sizing;
    core::DeploymentPlan current_plan = plan;
    double current_cost = cost(current_plan);
    double best_cost = current_cost;
    for (int iter = 0; iter < options_.annealing_iterations; ++iter) {
      const double temperature =
          1.0 - static_cast<double>(iter) / static_cast<double>(options_.annealing_iterations);
      const auto si = static_cast<std::size_t>(rng.uniform_int(0, profiles.size() - 1));
      const auto idx = static_cast<std::size_t>(rng.uniform_int(0, kInstanceSizes.size() - 1));
      auto candidate = sizing_for(profiles[si], static_cast<int>(idx));
      if (!candidate.has_value()) continue;
      std::vector<Sizing> trial = current;
      trial[si] = *candidate;
      core::DeploymentPlan trial_plan = pack(profiles, trial);
      const double trial_cost = cost(trial_plan);
      const double delta = trial_cost - current_cost;
      if (delta <= 0.0 || rng.next_double() < std::exp(-delta / (50.0 * temperature + 1e-9))) {
        current = std::move(trial);
        current_plan = std::move(trial_plan);
        current_cost = trial_cost;
        if (current_cost < best_cost) {
          best_cost = current_cost;
          sizing = current;
          plan = current_plan;
        }
      }
    }
  }

  // Anti-fragmentation scoring: absorb leftover slots by adding extra
  // instances (over-allocation) for the most demanding services, taken by
  // request rate, descending.
  std::vector<std::size_t> by_demand(profiles.size());
  for (std::size_t i = 0; i < by_demand.size(); ++i) by_demand[i] = i;
  std::sort(by_demand.begin(), by_demand.end(), [&](std::size_t a, std::size_t b) {
    return profiles[a].spec->request_rate > profiles[b].spec->request_rate;
  });
  for (auto& gpu : plan.gpus()) {
    bool grew = true;
    while (grew) {
      grew = false;
      // Largest instance size that still fits on this GPU.
      for (auto it = kInstanceSizes.rbegin(); it != kInstanceSizes.rend() && !grew; ++it) {
        if (!gpu.can_fit(*it)) continue;
        for (std::size_t si : by_demand) {
          const auto& triplet = profiles[si].best[static_cast<std::size_t>(size_to_index(*it))];
          if (!triplet.has_value()) continue;
          const bool placed = gpu.try_place(profiles[si].spec->id, *triplet);
          PARVA_CHECK(placed, "can_fit/try_place disagree");
          grew = true;
          break;
        }
      }
    }
  }
  plan.compact();

  const auto stop = std::chrono::steady_clock::now();

  core::ScheduleResult result;
  result.deployment = core::ParvaGpuScheduler::to_deployment(plan, name());
  for (auto& unit : result.deployment.units) {
    for (const ServiceProfile& profile : profiles) {
      if (profile.spec->id == unit.service_id) {
        unit.model = profile.spec->model;
        break;
      }
    }
  }
  result.scheduling_delay_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return result;
}

}  // namespace parva::baselines

#include "core/live_update.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/rng.hpp"
#include "core/parvagpu.hpp"
#include "core/reconfigure.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/live_update_oracle.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;
using testing::builtin_surfaces;
using testing::mig_unit;
using testing::service;

class LiveUpdateTest : public ::testing::Test {
 protected:
  LiveUpdateTest() : nvml_(cluster_), deployer_(nvml_, perf_), updater_(deployer_) {}

  Deployment schedule(const std::vector<ServiceSpec>& services) {
    ParvaGpuScheduler scheduler(builtin_profiles());
    return scheduler.schedule(services).value().deployment;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
  gpu::GpuCluster cluster_{8};
  gpu::NvmlSim nvml_{cluster_};
  Deployer deployer_;
  LiveUpdater updater_;
};

TEST_F(LiveUpdateTest, InPlaceUpdateIncursDowntime) {
  const auto current = schedule({service(0, "resnet-50", 205, 829),
                                 service(1, "vgg-19", 397, 354)});
  auto state = deployer_.deploy(current).value();
  // Triple resnet's rate.
  const auto target = schedule({service(0, "resnet-50", 205, 2500),
                                service(1, "vgg-19", 397, 354)});
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report.value().worst_downtime_ms(), 0.0);
  EXPECT_GT(report.value().added_units, 0);
  // Final cluster matches the target.
  EXPECT_EQ(state.unit_instances.size(), target.units.size());
  EXPECT_EQ(cluster_.total_allocated_gpcs(),
            static_cast<int>(target.total_granted_gpcs()));
}

TEST_F(LiveUpdateTest, ShadowedUpdateEliminatesDowntime) {
  const auto current = schedule({service(0, "resnet-50", 205, 829),
                                 service(1, "vgg-19", 397, 354)});
  auto state = deployer_.deploy(current).value();
  const auto target = schedule({service(0, "resnet-50", 205, 2500),
                                service(1, "vgg-19", 397, 354)});
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kShadowed);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_DOUBLE_EQ(report.value().worst_downtime_ms(), 0.0);
  EXPECT_GT(report.value().shadow_units, 0);
  // Shadows are gone afterwards: allocation equals the target exactly.
  EXPECT_EQ(cluster_.total_allocated_gpcs(),
            static_cast<int>(target.total_granted_gpcs()));
}

TEST_F(LiveUpdateTest, UntouchedServicesKeepInstances) {
  // Build the target through the Reconfigurer (Section III-F), which keeps
  // other services' placements stable — exactly the situation live update
  // exploits. vgg-16 at 5000 req/s owns several fully-allocated GPUs that
  // the Allocation Optimization never dissolves (> threshold GPCs), so its
  // instances must survive the update verbatim.
  const std::vector<ServiceSpec> services = {service(0, "resnet-50", 205, 829),
                                             service(1, "vgg-16", 400, 5000)};
  ParvaGpuScheduler scheduler(builtin_profiles());
  const auto current = scheduler.schedule(services).value().deployment;
  auto plan = scheduler.last_plan();
  auto configured = scheduler.last_configured();
  auto state = deployer_.deploy(current).value();

  // Identify vgg's instance ids before the update.
  std::set<int> vgg_handles_before;
  for (std::size_t i = 0; i < current.units.size(); ++i) {
    if (current.units[i].service_id == 1) {
      vgg_handles_before.insert(state.unit_instances[i].handle);
    }
  }

  Reconfigurer reconfigurer{SegmentConfigurator(), SegmentAllocator()};
  ASSERT_TRUE(reconfigurer
                  .update_service(plan, configured, service(0, "resnet-50", 205, 2500),
                                  builtin_surfaces())
                  .ok());
  Deployment target = ParvaGpuScheduler::to_deployment(plan, "ParvaGPU");
  for (auto& unit : target.units) {
    unit.model = unit.service_id == 0 ? "resnet-50" : "vgg-16";
  }

  const auto report = updater_.apply(current, state, target, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report.value().untouched_units, 0);
  // The bulk of vgg's segments survive with their original instance
  // handles (a minority segment co-resident with the updated service may
  // legitimately move during the optimization pass).
  std::set<int> vgg_handles_after;
  for (std::size_t i = 0; i < target.units.size(); ++i) {
    if (target.units[i].service_id == 1) {
      vgg_handles_after.insert(state.unit_instances[i].handle);
    }
  }
  std::set<int> surviving;
  std::set_intersection(vgg_handles_before.begin(), vgg_handles_before.end(),
                        vgg_handles_after.begin(), vgg_handles_after.end(),
                        std::inserter(surviving, surviving.begin()));
  EXPECT_GE(surviving.size(), vgg_handles_before.size() / 2);
}

TEST_F(LiveUpdateTest, IdenticalTargetIsNoop) {
  const auto current = schedule({service(0, "resnet-50", 205, 829)});
  auto state = deployer_.deploy(current).value();
  const auto report = updater_.apply(current, state, current, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().removed_units, 0);
  EXPECT_EQ(report.value().added_units, 0);
  EXPECT_DOUBLE_EQ(report.value().worst_downtime_ms(), 0.0);
  EXPECT_DOUBLE_EQ(report.value().makespan_ms, 0.0);
}

TEST_F(LiveUpdateTest, BrandNewServiceCannotBeShadowed) {
  const auto current = schedule({service(0, "resnet-50", 205, 829)});
  auto state = deployer_.deploy(current).value();
  const auto target = schedule({service(0, "resnet-50", 205, 829),
                                service(1, "densenet-121", 183, 353)});
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kShadowed);
  ASSERT_TRUE(report.ok());
  // The new service has no running segment to clone; it simply comes up
  // (its "downtime" is its startup window).
  EXPECT_GT(report.value().downtime_ms.at(1), 0.0);
}

/// A MIG-backed deployment of `units` over `gpu_count` GPUs.
Deployment mig_deployment(int gpu_count, std::vector<DeployedUnit> units) {
  Deployment deployment;
  deployment.uses_mig = true;
  deployment.gpu_count = gpu_count;
  deployment.units = std::move(units);
  return deployment;
}

TEST_F(LiveUpdateTest, DuplicateKeysKeepTheirOwnInstances) {
  // A repeats one placement (1g@0 on GPU 0), so it appears twice in the
  // target; B sits between the two. The live A keeps the first A slot, and
  // each added slot must receive the instance created for it: B's 3g on
  // GPU 1, and A's second copy, which can only land on GPU 0 at the
  // fallback slot 1 because the kept A holds slot 0.
  const DeployedUnit a = mig_unit(0, "resnet-50", 0, 1, 0);
  const DeployedUnit b = mig_unit(1, "vgg-19", 1, 3, 0);
  const Deployment current = mig_deployment(2, {a});
  auto state = deployer_.deploy(current).value();
  const gpu::GlobalInstanceId live_a = state.unit_instances[0];

  const Deployment target = mig_deployment(2, {a, b, a});
  const auto report = updater_.apply(current, state, target, UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().untouched_units, 1);
  EXPECT_EQ(report.value().added_units, 2);
  EXPECT_EQ(report.value().removed_units, 0);
  ASSERT_EQ(state.unit_instances.size(), 3u);
  EXPECT_EQ(state.unit_instances[0], live_a);

  const gpu::MigInstance* slot1 = cluster_.find_instance(state.unit_instances[1]);
  ASSERT_NE(slot1, nullptr);
  EXPECT_EQ(state.unit_instances[1].gpu, 1);
  EXPECT_EQ(slot1->placement, (gpu::Placement{3, 0}));
  EXPECT_EQ(slot1->processes.front().model, "vgg-19");

  const gpu::MigInstance* slot2 = cluster_.find_instance(state.unit_instances[2]);
  ASSERT_NE(slot2, nullptr);
  EXPECT_EQ(state.unit_instances[2].gpu, 0);
  EXPECT_EQ(slot2->placement, (gpu::Placement{1, 1}));
  EXPECT_EQ(slot2->processes.front().model, "resnet-50");
}

TEST_F(LiveUpdateTest, SurplusDuplicateTearsDownTheLaterOccurrence) {
  // Current holds B and then A twice (the second A fell back to slot 1 when
  // it was deployed); the target wants one A and B, in another order. The
  // first A is kept and the later one is torn down.
  const DeployedUnit a = mig_unit(0, "resnet-50", 0, 1, 0);
  const DeployedUnit b = mig_unit(1, "vgg-19", 1, 3, 0);
  const Deployment current = mig_deployment(2, {b, a, a});
  auto state = deployer_.deploy(current).value();
  const DeployedState before = state;

  const auto report =
      updater_.apply(current, state, mig_deployment(2, {a, b}), UpdateStrategy::kInPlace);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().untouched_units, 2);
  EXPECT_EQ(report.value().removed_units, 1);
  EXPECT_EQ(report.value().added_units, 0);
  ASSERT_EQ(state.unit_instances.size(), 2u);
  EXPECT_EQ(state.unit_instances[0], before.unit_instances[1]);
  EXPECT_EQ(state.unit_instances[1], before.unit_instances[0]);
  EXPECT_NE(cluster_.find_instance(before.unit_instances[1]), nullptr);
  EXPECT_EQ(cluster_.find_instance(before.unit_instances[2]), nullptr);
}

TEST_F(LiveUpdateTest, MismatchedStateRejected) {
  const auto current = schedule({service(0, "resnet-50", 205, 829)});
  DeployedState bogus;  // wrong arity
  const auto report = updater_.apply(current, bogus, current, UpdateStrategy::kInPlace);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code(), ErrorCode::kInvalidArgument);
}

/// One side of the differential run: a cluster behind a fault injector at
/// p=0.3, so two planes that receive the same calls draw the same faults.
struct ControlPlane {
  ControlPlane(const perfmodel::AnalyticalPerfModel& perf, int gpus, std::uint64_t seed)
      : cluster(static_cast<std::size_t>(gpus)),
        nvml(cluster),
        injector(faults(seed)),
        deployer(nvml, perf) {
    nvml.set_fault_injector(&injector);
  }

  static gpu::FaultPlan faults(std::uint64_t seed) {
    gpu::FaultPlan plan;
    plan.seed = seed;
    plan.transient_create_failure_prob = 0.3;
    return plan;
  }

  gpu::GpuCluster cluster;
  gpu::NvmlSim nvml;
  gpu::FaultInjector injector;
  Deployer deployer;
};

/// Puts `unit` into a free slot of a few random GPUs, or onto a fresh GPU
/// when none of them has room.
void place_somewhere(DeployedUnit& unit, std::vector<std::uint8_t>& occupied, Rng& rng) {
  const int gpcs = unit.placement->gpcs;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const auto g = static_cast<std::size_t>(rng.uniform_int(0, occupied.size() - 1));
    if (const auto slot = gpu::find_start_slot(occupied[g], gpcs)) {
      unit.gpu_index = static_cast<int>(g);
      unit.placement = gpu::Placement{gpcs, *slot};
      occupied[g] |= unit.placement->slot_mask();
      return;
    }
  }
  unit.gpu_index = static_cast<int>(occupied.size());
  unit.placement = gpu::Placement{gpcs, gpu::preferred_start_slots(gpcs).front()};
  occupied.push_back(unit.placement->slot_mask());
}

/// A legal successor of `current`: about 8% of its units dropped, 8%
/// re-placed, up to six copies of random units appended, the moved units
/// inserted at random positions or at the end, and some pairs swapped.
/// Placements never overlap, so unit keys stay unique on both sides.
Deployment mutate(const Deployment& current, Rng& rng) {
  std::vector<std::uint8_t> occupied(static_cast<std::size_t>(current.gpu_count), 0);
  for (const DeployedUnit& unit : current.units) {
    occupied[static_cast<std::size_t>(unit.gpu_index)] |= unit.placement->slot_mask();
  }
  Deployment target = current;
  target.units.clear();
  std::vector<DeployedUnit> moved;
  for (const DeployedUnit& unit : current.units) {
    const double draw = rng.next_double();
    if (draw >= 0.16) {
      target.units.push_back(unit);
      continue;
    }
    occupied[static_cast<std::size_t>(unit.gpu_index)] &=
        static_cast<std::uint8_t>(~unit.placement->slot_mask());
    if (draw >= 0.08) moved.push_back(unit);
  }
  const auto appended = rng.uniform_int(0, 6);
  for (std::uint64_t a = 0; a < appended; ++a) {
    moved.push_back(current.units[rng.uniform_int(0, current.units.size() - 1)]);
  }
  const bool scatter = rng.next_double() < 0.5;
  for (DeployedUnit& unit : moved) {
    place_somewhere(unit, occupied, rng);
    const auto at = scatter ? rng.uniform_int(0, target.units.size()) : target.units.size();
    target.units.insert(target.units.begin() + static_cast<std::ptrdiff_t>(at), unit);
  }
  const auto swaps = rng.uniform_int(0, 1) == 0 ? 0 : rng.uniform_int(1, 20);
  for (std::uint64_t s = 0; s < swaps; ++s) {
    std::swap(target.units[rng.uniform_int(0, target.units.size() - 1)],
              target.units[rng.uniform_int(0, target.units.size() - 1)]);
  }
  target.gpu_count = static_cast<int>(occupied.size());
  return target;
}

class LiveUpdateDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveUpdateDifferentialTest, MatchesTheReferenceDiffOnMutatedFleets) {
  // S5 x10 (370 units) through three seeded mutation rounds per strategy,
  // applied to twin control planes: one through LiveUpdater, one through
  // the reference diff. Instances, every report field and the NVML
  // operation log (which fixes the order of the fault injector's draws)
  // must agree after each round.
  static const Deployment fleet = [] {
    ParvaGpuScheduler scheduler(builtin_profiles());
    return scheduler.schedule(scenarios::scale_scenario(scenarios::scenario("S5"), 10).services)
        .value()
        .deployment;
  }();
  const perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  const std::uint64_t seed = GetParam();
  for (const UpdateStrategy strategy : {UpdateStrategy::kInPlace, UpdateStrategy::kShadowed}) {
    Rng rng(seed);
    ControlPlane fast(perf, fleet.gpu_count, seed);
    ControlPlane reference(perf, fleet.gpu_count, seed);
    DeployedState fast_state = fast.deployer.deploy(fleet).value();
    DeployedState reference_state = reference.deployer.deploy(fleet).value();
    ASSERT_EQ(fast_state.unit_instances, reference_state.unit_instances);
    LiveUpdater updater(fast.deployer);

    Deployment current = fleet;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("strategy " + std::to_string(static_cast<int>(strategy)) + " round " +
                   std::to_string(round));
      const Deployment target = mutate(current, rng);
      fast.nvml.clear_operation_log();
      reference.nvml.clear_operation_log();
      const auto got = updater.apply(current, fast_state, target, strategy);
      const auto want = testing::reference_apply(reference.deployer, current, reference_state,
                                                 target, strategy);
      ASSERT_TRUE(want.ok()) << want.error().to_string();
      ASSERT_TRUE(got.ok()) << got.error().to_string();
      EXPECT_EQ(fast_state.unit_instances, reference_state.unit_instances);
      EXPECT_EQ(got.value().downtime_ms, want.value().downtime_ms);
      EXPECT_EQ(got.value().makespan_ms, want.value().makespan_ms);
      EXPECT_EQ(got.value().untouched_units, want.value().untouched_units);
      EXPECT_EQ(got.value().removed_units, want.value().removed_units);
      EXPECT_EQ(got.value().added_units, want.value().added_units);
      EXPECT_EQ(got.value().shadow_units, want.value().shadow_units);
      EXPECT_EQ(got.value().shadow_teardown_failures, want.value().shadow_teardown_failures);
      EXPECT_EQ(fast.nvml.operation_log(), reference.nvml.operation_log());
      EXPECT_GT(got.value().added_units, 0);
      current = target;
    }
    EXPECT_GT(fast.injector.transient_failures_injected(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveUpdateDifferentialTest, ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace parva::core

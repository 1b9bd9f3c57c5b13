#include "core/configurator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/parvagpu.hpp"
#include "scenarios/scenarios.hpp"
#include "tests/core/configurator_oracle.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

using testing::builtin_profiles;
using testing::builtin_surfaces;
using testing::llm_profiles;
using testing::llm_surfaces;
using testing::service;

class ConfiguratorTest : public ::testing::Test {
 protected:
  SegmentConfigurator configurator_;
};

TEST_F(ConfiguratorTest, TripletDecisionPicksMaxThroughputPerSize) {
  const auto spec = service(0, "resnet-50", 205, 829);
  const auto surface = builtin_surfaces().find("resnet-50");
  const auto configured = configurator_.triplet_decision(spec, *surface);
  ASSERT_TRUE(configured.ok());
  const double bound = 205.0 * 0.5;
  for (int idx = 0; idx < kInstanceSizeCount; ++idx) {
    const auto& slot = configured.value().opt_tri_array[static_cast<std::size_t>(idx)];
    if (!slot.has_value()) continue;
    const int gpcs = instance_size_from_index(idx);
    EXPECT_EQ(slot->gpcs, gpcs);
    EXPECT_LT(slot->latency_ms, bound);
    // No profiled point of this size beats it under the bound.
    for (const auto& point : surface->points()) {
      if (point.oom || point.gpcs != gpcs || point.latency_ms >= bound) continue;
      EXPECT_LE(point.throughput, slot->throughput + 1e-9);
    }
  }
}

TEST_F(ConfiguratorTest, InternalLatencyIsHalfTheSlo) {
  // A point at 0.6x SLO must be excluded (bound is 0.5x).
  const auto spec = service(0, "resnet-50", 205, 100);
  const auto surface = builtin_surfaces().find("resnet-50");
  const auto configured = configurator_.triplet_decision(spec, *surface).value();
  for (const auto& slot : configured.opt_tri_array) {
    if (slot.has_value()) {
      EXPECT_LT(slot->latency_ms, 102.5);
    }
  }
}

TEST_F(ConfiguratorTest, InfeasibleSloRejected) {
  const auto spec = service(0, "vgg-19", 1.0, 10);  // 0.5 ms internal bound
  const auto surface = builtin_surfaces().find("vgg-19");
  const auto configured = configurator_.triplet_decision(spec, *surface);
  ASSERT_FALSE(configured.ok());
  EXPECT_EQ(configured.error().code(), ErrorCode::kCapacityExceeded);
}

TEST_F(ConfiguratorTest, DemandMatchingPicksGpcEfficiencyOptimum) {
  const auto spec = service(0, "inceptionv3", 419, 5722);
  const auto surface = builtin_surfaces().find("inceptionv3");
  auto configured = configurator_.triplet_decision(spec, *surface).value();
  ASSERT_TRUE(configurator_.demand_matching(configured).ok());
  for (const auto& slot : configured.opt_tri_array) {
    if (!slot.has_value()) continue;
    EXPECT_LE(slot->throughput_per_gpc(), configured.opt_seg.throughput_per_gpc() + 1e-9);
  }
}

TEST_F(ConfiguratorTest, FloorRuleAndLastSegment) {
  const auto spec = service(0, "inceptionv3", 419, 5722);
  const auto surface = builtin_surfaces().find("inceptionv3");
  auto configured = configurator_.triplet_decision(spec, *surface).value();
  ASSERT_TRUE(configurator_.demand_matching(configured).ok());
  EXPECT_EQ(configured.num_opt_seg,
            static_cast<int>(std::floor(5722.0 / configured.opt_seg.throughput)));
  // Configured capacity covers the rate.
  EXPECT_GE(configured.total_throughput(), 5722.0);
  // The last segment is the smallest instance size covering the remainder.
  const double left = 5722.0 - configured.num_opt_seg * configured.opt_seg.throughput;
  if (left > 0) {
    ASSERT_TRUE(configured.last_seg.has_value());
    EXPECT_GE(configured.last_seg->throughput, left);
    for (const auto& slot : configured.opt_tri_array) {
      if (!slot.has_value() || slot->gpcs >= configured.last_seg->gpcs) continue;
      EXPECT_LT(slot->throughput, left)
          << "a smaller size could have covered the remainder";
    }
  }
}

TEST_F(ConfiguratorTest, SmallRateUsesSingleSegment) {
  // Section III-D2: small request rates yield num_opt_seg = 0 and a single
  // right-sized last segment.
  const auto spec = service(0, "mobilenetv2", 167, 50);
  const auto surface = builtin_surfaces().find("mobilenetv2");
  auto configured = configurator_.triplet_decision(spec, *surface).value();
  ASSERT_TRUE(configurator_.demand_matching(configured).ok());
  EXPECT_EQ(configured.num_opt_seg, 0);
  ASSERT_TRUE(configured.last_seg.has_value());
  EXPECT_EQ(configured.last_seg->gpcs, 1);  // smallest size suffices
}

TEST_F(ConfiguratorTest, ZeroRateNeedsNothing) {
  const auto spec = service(0, "resnet-50", 205, 0);
  const auto surface = builtin_surfaces().find("resnet-50");
  auto configured = configurator_.triplet_decision(spec, *surface).value();
  ASSERT_TRUE(configurator_.demand_matching(configured).ok());
  EXPECT_EQ(configured.num_opt_seg, 0);
  EXPECT_FALSE(configured.last_seg.has_value());
  EXPECT_EQ(configured.total_gpcs(), 0);
}

TEST_F(ConfiguratorTest, SingleProcessVariantRestrictsTriplets) {
  ConfiguratorOptions options;
  options.max_processes = 1;
  SegmentConfigurator single(options);
  const auto spec = service(0, "densenet-121", 69, 2228);  // S5's tight SLO
  const auto surface = builtin_surfaces().find("densenet-121");
  const auto configured = single.triplet_decision(spec, *surface).value();
  for (const auto& slot : configured.opt_tri_array) {
    if (slot.has_value()) {
      EXPECT_EQ(slot->procs, 1);
    }
  }
  // With MPS allowed, some size uses more processes and beats it.
  const auto mps = configurator_.triplet_decision(spec, *surface).value();
  bool used_mps = false;
  double mps_best = 0.0;
  double single_best = 0.0;
  for (int idx = 0; idx < kInstanceSizeCount; ++idx) {
    const auto& m = mps.opt_tri_array[static_cast<std::size_t>(idx)];
    const auto& s = configured.opt_tri_array[static_cast<std::size_t>(idx)];
    if (m.has_value()) {
      used_mps |= m->procs > 1;
      mps_best = std::max(mps_best, m->throughput_per_gpc());
    }
    if (s.has_value()) single_best = std::max(single_best, s->throughput_per_gpc());
  }
  EXPECT_TRUE(used_mps);
  EXPECT_GT(mps_best, single_best);
}

TEST_F(ConfiguratorTest, ConfigureWholeServiceSet) {
  const std::vector<ServiceSpec> services = {
      service(0, "resnet-50", 205, 829),
      service(1, "vgg-16", 400, 410),
      service(2, "bert-large", 6434, 19),
  };
  const auto configured = configurator_.configure(services, builtin_surfaces());
  ASSERT_TRUE(configured.ok());
  ASSERT_EQ(configured.value().size(), 3u);
  for (const auto& c : configured.value()) {
    EXPECT_GE(c.total_throughput(), c.spec.request_rate);
  }
}

TEST_F(ConfiguratorTest, UnknownModelFailsCleanly) {
  const std::vector<ServiceSpec> services = {service(0, "not-a-model", 100, 10)};
  const auto configured = configurator_.configure(services, builtin_surfaces());
  ASSERT_FALSE(configured.ok());
  EXPECT_EQ(configured.error().code(), ErrorCode::kNotFound);
}

// An SLO that is not finite and positive, or a NaN or negative rate, is
// refused with an Error naming the service, by triplet_decision and by
// schedule() through it. (An infinite rate passes triplet_decision and is
// refused by demand_matching; see HugeOrInfiniteRateIsRefusedNotUnderProvisioned.)
TEST_F(ConfiguratorTest, InvalidSloOrRateIsRefused) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto surface = builtin_surfaces().find("resnet-50");
  ParvaGpuScheduler scheduler(builtin_profiles());
  for (const ServiceSpec& spec :
       {service(7, "resnet-50", 0, 10), service(7, "resnet-50", 100, -1),
        service(7, "resnet-50", nan, 10), service(7, "resnet-50", inf, 10),
        service(7, "resnet-50", -5, 10), service(7, "resnet-50", 100, nan)}) {
    const std::string what =
        "slo=" + std::to_string(spec.slo_latency_ms) + " rate=" + std::to_string(spec.request_rate);
    const auto decided = configurator_.triplet_decision(spec, *surface);
    ASSERT_FALSE(decided.ok()) << what;
    EXPECT_EQ(decided.error().code(), ErrorCode::kInvalidArgument) << what;
    EXPECT_NE(decided.error().message().find("service 7"), std::string::npos) << what;

    const std::vector<ServiceSpec> one = {spec};
    const auto planned = scheduler.schedule(one);
    ASSERT_FALSE(planned.ok()) << what;
    EXPECT_EQ(planned.error().code(), ErrorCode::kInvalidArgument) << what;
  }
}

TEST_F(ConfiguratorTest, DemandMatchingBeforeDecisionIsInternalError) {
  ConfiguredService empty;
  empty.spec = service(0, "resnet-50", 205, 100);
  const auto status = configurator_.demand_matching(empty);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kInternal);
}

// Property: across every scenario-like (model, slo, rate) combination, the
// configured capacity covers the rate and the latency bound holds — the
// no-SLO-violation invariant of Fig. 8 begins here.
class ConfiguratorProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ConfiguratorProperty, CapacityCoversEveryRate) {
  SegmentConfigurator configurator;
  const auto surface = builtin_surfaces().find(GetParam());
  ASSERT_NE(surface, nullptr);
  for (double slo : {100.0, 200.0, 400.0, 1000.0}) {
    for (double rate : {1.0, 50.0, 500.0, 5000.0, 20000.0}) {
      const auto spec = service(0, GetParam(), slo, rate);
      auto configured = configurator.triplet_decision(spec, *surface);
      if (!configured.ok()) continue;  // SLO infeasible for this model: fine
      ASSERT_TRUE(configurator.demand_matching(configured.value()).ok());
      const auto& c = configured.value();
      EXPECT_GE(c.total_throughput() + 1e-6, rate)
          << GetParam() << " slo=" << slo << " rate=" << rate;
      EXPECT_LT(c.opt_seg.latency_ms, slo * 0.5);
      if (c.last_seg.has_value()) {
        EXPECT_LT(c.last_seg->latency_ms, slo * 0.5);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ConfiguratorProperty,
                         ::testing::Values("bert-large", "densenet-121", "densenet-169",
                                           "densenet-201", "inceptionv3", "mobilenetv2",
                                           "resnet-101", "resnet-152", "resnet-50", "vgg-16",
                                           "vgg-19"));

// A rate whose whole-segment count leaves the `int` range, or that is not
// finite, is refused rather than planned with fewer segments than it needs.
TEST_F(ConfiguratorTest, HugeOrInfiniteRateIsRefusedNotUnderProvisioned) {
  const ServiceSpec huge = service(0, "resnet-50", 205, 1e13);
  const ServiceSpec infinite =
      service(0, "resnet-50", 205, std::numeric_limits<double>::infinity());
  const auto surface = builtin_surfaces().find("resnet-50");

  auto decided = configurator_.triplet_decision(huge, *surface).value();
  const Status too_many = configurator_.demand_matching(decided);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.error().code(), ErrorCode::kCapacityExceeded);

  decided = configurator_.triplet_decision(infinite, *surface).value();
  const Status not_finite = configurator_.demand_matching(decided);
  ASSERT_FALSE(not_finite.ok());
  EXPECT_EQ(not_finite.error().code(), ErrorCode::kInvalidArgument);

  // The scheduler returns the error instead of a one-segment plan.
  ParvaGpuScheduler scheduler(builtin_profiles());
  const std::vector<ServiceSpec> huge_set = {huge};
  const auto huge_plan = scheduler.schedule(huge_set);
  ASSERT_FALSE(huge_plan.ok());
  EXPECT_EQ(huge_plan.error().code(), ErrorCode::kCapacityExceeded);
  const std::vector<ServiceSpec> infinite_set = {infinite};
  const auto infinite_plan = scheduler.schedule(infinite_set);
  ASSERT_FALSE(infinite_plan.ok());
  EXPECT_EQ(infinite_plan.error().code(), ErrorCode::kInvalidArgument);

  // The boundary: 2^31 whole segments is one more than an int holds, 2^30
  // is not (both quotients are exact, the factors being powers of two).
  decided = configurator_.triplet_decision(service(0, "resnet-50", 205, 1000), *surface).value();
  ASSERT_TRUE(configurator_.demand_matching(decided).ok());
  const double throughput = decided.opt_seg.throughput;
  decided.spec.request_rate = throughput * 2147483648.0;
  const Status over = configurator_.demand_matching(decided);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code(), ErrorCode::kCapacityExceeded);
  decided.spec.request_rate = throughput * 1073741824.0;
  ASSERT_TRUE(configurator_.demand_matching(decided).ok());
  EXPECT_EQ(decided.num_opt_seg, 1073741824);
  EXPECT_FALSE(decided.last_seg.has_value());
}

// ---------------------------------------------------------------------------
// Differential coverage of the indexed-surface path: it must be
// bit-identical to the reference table scan (tests/core/configurator_oracle.hpp).
// ---------------------------------------------------------------------------

void expect_same_triplet(const Triplet& got, const Triplet& want) {
  EXPECT_EQ(got.gpcs, want.gpcs);
  EXPECT_EQ(got.batch, want.batch);
  EXPECT_EQ(got.procs, want.procs);
  // Exact double equality: the surface returns copies of the same profiled
  // points the scan finds, never re-derived values.
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.latency_ms, want.latency_ms);
  EXPECT_EQ(got.sm_occupancy, want.sm_occupancy);
  EXPECT_EQ(got.memory_gib, want.memory_gib);
}

void expect_same_triplet(const std::optional<Triplet>& got,
                         const std::optional<Triplet>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got.has_value()) expect_same_triplet(*got, *want);
}

void expect_same_configured(const ConfiguredService& got, const ConfiguredService& want) {
  EXPECT_EQ(got.spec.id, want.spec.id);
  for (std::size_t i = 0; i < got.opt_tri_array.size(); ++i) {
    expect_same_triplet(got.opt_tri_array[i], want.opt_tri_array[i]);
  }
  expect_same_triplet(got.opt_seg, want.opt_seg);
  EXPECT_EQ(got.num_opt_seg, want.num_opt_seg);
  expect_same_triplet(got.last_seg, want.last_seg);
}

TEST_F(ConfiguratorTest, SurfaceTripletDecisionMatchesTableScan) {
  const std::pair<const profiler::ProfileSet*, const profiler::ProfileSurfaceSet*> inputs[] = {
      {&builtin_profiles(), &builtin_surfaces()}, {&llm_profiles(), &llm_surfaces()}};
  for (const auto& [profiles, surfaces] : inputs) {
    for (const auto& table : profiles->tables()) {
      const profiler::ProfileSurface* surface = surfaces->find(table.model());
      ASSERT_NE(surface, nullptr);
      for (double slo : {20.0, 69.0, 100.0, 205.0, 419.0, 1000.0, 4000.0, 10000.0, 20000.0}) {
        for (double rate : {1.0, 50.0, 829.0, 5722.0, 20000.0}) {
          const auto spec = service(0, table.model(), slo, rate);
          const auto scan = testing::scan_triplet_decision(configurator_, spec, table);
          const auto fast = configurator_.triplet_decision(spec, *surface);
          ASSERT_EQ(scan.ok(), fast.ok()) << table.model() << " slo=" << slo;
          if (!scan.ok()) {
            EXPECT_EQ(scan.error().code(), fast.error().code());
            continue;
          }
          expect_same_configured(fast.value(), scan.value());
        }
      }
    }
  }
}

TEST_F(ConfiguratorTest, SurfaceConfigureMatchesScanOnEveryScenario) {
  struct Input {
    const scenarios::Scenario* scenario;
    const profiler::ProfileSet* profiles;
    const profiler::ProfileSurfaceSet* surfaces;
  };
  std::vector<Input> inputs;
  for (const auto& sc : scenarios::all_scenarios()) {
    inputs.push_back({&sc, &builtin_profiles(), &builtin_surfaces()});
  }
  inputs.push_back({&scenarios::llm_scenario(), &llm_profiles(), &llm_surfaces()});
  for (const Input& input : inputs) {
    const auto& services = input.scenario->services;
    const auto scan = testing::scan_configure(configurator_, services, *input.profiles);
    const auto fast = configurator_.configure(services, *input.surfaces);
    ASSERT_TRUE(scan.ok()) << input.scenario->name;
    ASSERT_TRUE(fast.ok()) << input.scenario->name;
    ASSERT_EQ(fast.value().size(), scan.value().size());
    for (std::size_t i = 0; i < scan.value().size(); ++i) {
      expect_same_configured(fast.value()[i], scan.value()[i]);
    }
  }
}

}  // namespace
}  // namespace parva::core

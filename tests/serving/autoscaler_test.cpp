#include "serving/autoscaler.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "telemetry/telemetry.hpp"
#include "tests/core/test_support.hpp"

namespace parva::serving {
namespace {

using core::testing::builtin_profiles;
using core::testing::service;

class AutoscalerTest : public ::testing::Test {
 protected:
  std::vector<core::ServiceSpec> base_services() {
    return {service(0, "resnet-50", 205, 2000), service(1, "inceptionv3", 419, 1500),
            service(2, "vgg-19", 397, 900)};
  }

  AutoscalerOptions fast_options() {
    AutoscalerOptions options;
    options.epoch_minutes = 60.0;
    options.verify_duration_ms = 1'000.0;
    return options;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
};

TEST_F(AutoscalerTest, DiurnalDaySavesGpuHoursVsStaticPeak) {
  Autoscaler autoscaler(builtin_profiles(), perf_, fast_options());
  const auto report = autoscaler.run_day(base_services(), RateTrace::diurnal());
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report.value().epochs.size(), 24u);
  EXPECT_GT(report.value().saving_vs_static(), 0.15);
  EXPECT_LE(report.value().gpu_hours, report.value().static_gpu_hours);
  EXPECT_GT(report.value().total_reconfigurations, 0);
}

TEST_F(AutoscalerTest, EveryEpochStaysCompliant) {
  Autoscaler autoscaler(builtin_profiles(), perf_, fast_options());
  const auto report = autoscaler.run_day(base_services(), RateTrace::diurnal());
  ASSERT_TRUE(report.ok());
  for (const EpochRecord& epoch : report.value().epochs) {
    EXPECT_DOUBLE_EQ(epoch.slo_compliance, 1.0) << "t=" << epoch.t_hours;
    EXPECT_GT(epoch.gpus, 0) << "t=" << epoch.t_hours;
  }
}

TEST_F(AutoscalerTest, FlatTraceNeverReconfiguresAfterStart) {
  Autoscaler autoscaler(builtin_profiles(), perf_, fast_options());
  const auto report = autoscaler.run_day(base_services(), RateTrace::flat(1.0));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().total_reconfigurations, 0);
  // Fleet size is constant.
  for (const EpochRecord& epoch : report.value().epochs) {
    EXPECT_EQ(epoch.gpus, report.value().epochs.front().gpus);
  }
  EXPECT_NEAR(report.value().saving_vs_static(), 0.0, 1e-9);
}

TEST_F(AutoscalerTest, SurgeGrowsAndShrinksTheFleet) {
  Autoscaler autoscaler(builtin_profiles(), perf_, fast_options());
  const auto report =
      autoscaler.run_day(base_services(), RateTrace::surge(10.0, 13.0, 2.5));
  ASSERT_TRUE(report.ok());
  int before = 0;
  int during = 0;
  int after = 0;
  for (const EpochRecord& epoch : report.value().epochs) {
    if (epoch.t_hours < 9.0) before = std::max(before, epoch.gpus);
    if (epoch.t_hours >= 10.5 && epoch.t_hours <= 12.5) during = std::max(during, epoch.gpus);
    if (epoch.t_hours > 15.0) after = std::max(after, epoch.gpus);
  }
  EXPECT_GT(during, before);
  EXPECT_LE(after, before + 1);  // the fleet contracts again after the surge
}

TEST_F(AutoscalerTest, InvalidEpochIsRefused) {
  // Below one minute: 1e-9 minutes would be 1.4e12 epochs, and near 1e-300
  // the epoch clock stops advancing. Each must fail before any epoch runs.
  for (const double epoch_minutes : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                     std::numeric_limits<double>::infinity(), 0.5, 1e-9,
                                     1e-300}) {
    telemetry::Telemetry telemetry;
    AutoscalerOptions bad = fast_options();
    bad.epoch_minutes = epoch_minutes;
    bad.telemetry = &telemetry;
    Autoscaler autoscaler(builtin_profiles(), perf_, bad);
    const auto report = autoscaler.run_day(base_services(), RateTrace::diurnal());
    ASSERT_FALSE(report.ok()) << "epoch " << epoch_minutes;
    EXPECT_EQ(report.error().code(), ErrorCode::kInvalidArgument) << "epoch " << epoch_minutes;
    EXPECT_EQ(telemetry.events().size(), 0u) << "an epoch ran at " << epoch_minutes;
  }
}

}  // namespace
}  // namespace parva::serving

#include "serving/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/parvagpu.hpp"
#include "gpu/fault_plan.hpp"
#include "tests/core/test_support.hpp"

namespace parva::serving {
namespace {

using core::testing::builtin_profiles;
using core::testing::service;

class ClusterSimTest : public ::testing::Test {
 protected:
  core::Deployment schedule(const std::vector<core::ServiceSpec>& services) {
    core::ParvaGpuScheduler scheduler(builtin_profiles());
    return scheduler.schedule(services).value().deployment;
  }

  SimulationOptions fast_options(std::uint64_t seed = 42) {
    SimulationOptions options;
    options.duration_ms = 4'000.0;
    options.warmup_ms = 500.0;
    options.seed = seed;
    return options;
  }

  perfmodel::AnalyticalPerfModel perf_{perfmodel::ModelCatalog::builtin()};
};

TEST_F(ClusterSimTest, WellProvisionedDeploymentIsCompliant) {
  const std::vector<core::ServiceSpec> services = {service(0, "resnet-50", 205, 829),
                                                   service(1, "vgg-19", 397, 354)};
  const core::Deployment deployment = schedule(services);
  ClusterSimulation sim(deployment, services, perf_);
  const SimulationResult result = sim.run(fast_options());
  EXPECT_DOUBLE_EQ(result.overall_compliance(), 1.0);
  EXPECT_DOUBLE_EQ(result.worst_compliance(), 1.0);
}

TEST_F(ClusterSimTest, ThroughputMatchesOfferedRate) {
  const std::vector<core::ServiceSpec> services = {service(0, "resnet-50", 205, 829)};
  const core::Deployment deployment = schedule(services);
  ClusterSimulation sim(deployment, services, perf_);
  const SimulationResult result = sim.run(fast_options());
  ASSERT_EQ(result.services.size(), 1u);
  EXPECT_NEAR(result.services[0].measured_rate, 829.0, 0.1 * 829.0);
}

TEST_F(ClusterSimTest, OverloadedDeploymentViolates) {
  // Offer twice the deployment's capacity: queues diverge, SLOs break.
  const std::vector<core::ServiceSpec> sized_for = {service(0, "resnet-50", 205, 800)};
  const core::Deployment deployment = schedule(sized_for);
  const std::vector<core::ServiceSpec> offered = {service(0, "resnet-50", 205, 2400)};
  ClusterSimulation sim(deployment, offered, perf_);
  const SimulationResult result = sim.run(fast_options());
  EXPECT_LT(result.overall_compliance(), 0.9);
}

TEST_F(ClusterSimTest, DeterministicForFixedSeed) {
  const std::vector<core::ServiceSpec> services = {service(0, "inceptionv3", 419, 460)};
  const core::Deployment deployment = schedule(services);
  ClusterSimulation sim(deployment, services, perf_);
  const SimulationResult a = sim.run(fast_options(7));
  const SimulationResult b = sim.run(fast_options(7));
  ASSERT_EQ(a.services[0].requests, b.services[0].requests);
  EXPECT_DOUBLE_EQ(a.services[0].request_latency_ms.mean(),
                   b.services[0].request_latency_ms.mean());
  EXPECT_DOUBLE_EQ(a.internal_slack, b.internal_slack);
}

TEST_F(ClusterSimTest, PoissonArrivalsAreBurstier) {
  const std::vector<core::ServiceSpec> services = {service(0, "resnet-50", 205, 829)};
  const core::Deployment deployment = schedule(services);
  ClusterSimulation sim(deployment, services, perf_);
  SimulationOptions deterministic = fast_options();
  SimulationOptions poisson = fast_options();
  poisson.arrivals = ArrivalProcess::kPoisson;
  const auto paced = sim.run(deterministic);
  const auto bursty = sim.run(poisson);
  EXPECT_GT(bursty.services[0].request_latency_ms.p99(),
            paced.services[0].request_latency_ms.p99());
}

TEST_F(ClusterSimTest, LoadLevelShapesBatchingAndLatency) {
  // Adaptive batching: at low load batches stay small (fast, inefficient —
  // the per-request w0 cost is not amortised), under full load the queue
  // keeps batches full (efficient, but each request waits for a longer
  // kernel). Mean latency therefore RISES with load while the quiet
  // cluster still burns SM-time per request at a higher rate.
  const std::vector<core::ServiceSpec> sized_for = {service(0, "resnet-50", 205, 800)};
  const core::Deployment deployment = schedule(sized_for);
  const std::vector<core::ServiceSpec> tenth_load = {service(0, "resnet-50", 205, 80)};
  const std::vector<core::ServiceSpec> full_load = {service(0, "resnet-50", 205, 800)};
  ClusterSimulation quiet(deployment, tenth_load, perf_);
  ClusterSimulation busy(deployment, full_load, perf_);
  const auto quiet_result = quiet.run(fast_options());
  const auto busy_result = busy.run(fast_options());
  EXPECT_LT(quiet_result.services[0].request_latency_ms.mean(),
            busy_result.services[0].request_latency_ms.mean());
  // Ten times the load does NOT cost ten times the SM-time: batching
  // amortisation makes the busy cluster clearly more work-efficient per
  // request (>= ~1.5x for ResNet-50's w0/w1 ratio).
  const double quiet_activity = 1.0 - quiet_result.internal_slack;
  const double busy_activity = 1.0 - busy_result.internal_slack;
  EXPECT_LT(busy_activity, 10.0 * quiet_activity * 0.65);
  // Both remain compliant.
  EXPECT_DOUBLE_EQ(quiet_result.worst_compliance(), 1.0);
  EXPECT_DOUBLE_EQ(busy_result.worst_compliance(), 1.0);
}

TEST_F(ClusterSimTest, LatencyAboveServiceTimeBelowSlo) {
  const std::vector<core::ServiceSpec> services = {service(0, "vgg-16", 400, 410)};
  const core::Deployment deployment = schedule(services);
  ClusterSimulation sim(deployment, services, perf_);
  const SimulationResult result = sim.run(fast_options());
  const auto& latency = result.services[0].request_latency_ms;
  ASSERT_GT(latency.count(), 0u);
  EXPECT_GT(latency.mean(), 0.0);
  EXPECT_LE(latency.p99(), 400.0);
}

TEST_F(ClusterSimTest, MultiUnitServiceBalancesLoad) {
  const std::vector<core::ServiceSpec> services = {service(0, "mobilenetv2", 167, 7513)};
  const core::Deployment deployment = schedule(services);
  ASSERT_GT(deployment.units.size(), 1u);
  ClusterSimulation sim(deployment, services, perf_);
  const SimulationResult result = sim.run(fast_options());
  EXPECT_DOUBLE_EQ(result.overall_compliance(), 1.0);
  // Every unit carries some activity: the dispatcher spreads the load.
  for (double activity : result.unit_activity) {
    EXPECT_GT(activity, 0.0);
  }
}

TEST_F(ClusterSimTest, ZeroRateServiceProducesNoBatches) {
  const std::vector<core::ServiceSpec> sized_for = {service(0, "resnet-50", 205, 800)};
  const core::Deployment deployment = schedule(sized_for);
  const std::vector<core::ServiceSpec> idle = {service(0, "resnet-50", 205, 0)};
  ClusterSimulation sim(deployment, idle, perf_);
  const SimulationResult result = sim.run(fast_options());
  EXPECT_EQ(result.services[0].requests, 0u);
  EXPECT_DOUBLE_EQ(result.services[0].compliance(), 1.0);
  EXPECT_NEAR(result.internal_slack, 1.0, 1e-9);
}

TEST_F(ClusterSimTest, InvalidOptionsThrow) {
  const std::vector<core::ServiceSpec> services = {service(0, "resnet-50", 205, 100)};
  const core::Deployment deployment = schedule(services);
  ClusterSimulation sim(deployment, services, perf_);
  SimulationOptions bad;
  bad.duration_ms = 0.0;
  EXPECT_THROW((void)sim.run(bad), std::logic_error);

  // Non-finite and negative times: an infinite duration would size the
  // timeline from ceil(inf), a NaN fault time breaks the fault sort.
  for (const double bad_ms : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    SimulationOptions duration;
    duration.duration_ms = bad_ms;
    duration.timeline_bucket_ms = 100.0;
    SimulationOptions warmup;
    warmup.warmup_ms = bad_ms;
    SimulationOptions bucket;
    bucket.timeline_bucket_ms = bad_ms;
    gpu::FaultPlan plan;
    plan.gpu_failures = {{1'000.0, 0, 79}, {bad_ms, 0, 79}};
    SimulationOptions fault;
    fault.fault_plan = &plan;
    // A NaN activation would leave its unit dormant with no error, and a
    // NaN recovery boundary would never open the post-recovery phase.
    SimulationOptions activation;
    activation.activations = {{0, 500.0}, {0, bad_ms}};
    SimulationOptions recovered;
    recovered.recovered_at_ms = bad_ms;
    for (const SimulationOptions* options :
         {&duration, &warmup, &bucket, &fault, &activation, &recovered}) {
      EXPECT_THROW((void)sim.run(*options), std::logic_error) << bad_ms;
    }
  }

  // Still legal: an activation past the horizon (it never fires) and a
  // zero recovery time (derive it from the latest activation).
  SimulationOptions late = fast_options();
  late.activations = {{0, 1e12}};
  late.recovered_at_ms = 0.0;
  EXPECT_NO_THROW((void)sim.run(late));
}

TEST_F(ClusterSimTest, RepeatedServiceIdThrows) {
  // Units, outcomes and streams all key on the service id: two services
  // with id 7 would silently fold every unit into the first of them.
  const std::vector<core::ServiceSpec> sized_for = {service(7, "resnet-50", 205, 400)};
  const core::Deployment deployment = schedule(sized_for);
  const std::vector<core::ServiceSpec> repeated = {service(7, "resnet-50", 205, 400),
                                                   service(7, "vgg-19", 397, 200)};
  ClusterSimulation sim(deployment, repeated, perf_);
  try {
    (void)sim.run(fast_options());
    FAIL() << "a repeated service id was accepted";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("service 7 at position 1 repeats"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(ClusterSimTest, InvalidServiceThrows) {
  // A non-finite rate would pace arrivals 0 ms apart (arrivals repeat at
  // t=0 until memory runs out), and a NaN SLO is never violated, so the
  // simulator refuses every service the schedulers refuse.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<core::ServiceSpec> sized_for = {service(7, "resnet-50", 205, 400)};
  const core::Deployment deployment = schedule(sized_for);
  for (const core::ServiceSpec& spec :
       {service(7, "resnet-50", nan, 400), service(7, "resnet-50", inf, 400),
        service(7, "resnet-50", 0, 400), service(7, "resnet-50", -5, 400),
        service(7, "resnet-50", 205, nan), service(7, "resnet-50", 205, inf),
        service(7, "resnet-50", 205, -1), service(-1, "resnet-50", 205, 400)}) {
    const std::vector<core::ServiceSpec> offered = {spec};
    ClusterSimulation sim(deployment, offered, perf_);
    const std::string what = "id=" + std::to_string(spec.id) +
                             " slo=" + std::to_string(spec.slo_latency_ms) +
                             " rate=" + std::to_string(spec.request_rate);
    try {
      (void)sim.run(fast_options());
      ADD_FAILURE() << "an invalid service was simulated: " << what;
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string(error.what()).find("service " + std::to_string(spec.id) + " ("),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace parva::serving

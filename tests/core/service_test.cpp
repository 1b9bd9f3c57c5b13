#include "core/service.hpp"

#include <gtest/gtest.h>

#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

TEST(ServiceTest, SizeIndexRoundTrip) {
  for (int gpcs : {1, 2, 3, 4, 7}) {
    const int index = instance_size_index(gpcs);
    ASSERT_GE(index, 0);
    EXPECT_EQ(instance_size_from_index(index), gpcs);
  }
  EXPECT_EQ(instance_size_index(5), -1);
  EXPECT_EQ(instance_size_index(0), -1);
  EXPECT_EQ(instance_size_from_index(5), -1);
  EXPECT_EQ(instance_size_from_index(-1), -1);
}

TEST(ServiceTest, IdIndexFindsFirstPositionOfEachId) {
  using testing::service;
  const std::vector<ServiceSpec> services = {
      service(9, "a", 100, 1), service(-3, "b", 100, 1), service(9, "c", 100, 1),
      service(4, "d", 100, 1), service(-3, "e", 100, 1),
  };
  const ServiceIdIndex index(services);
  EXPECT_EQ(index.find(9), std::optional<std::size_t>(0));
  EXPECT_EQ(index.find(-3), std::optional<std::size_t>(1));
  EXPECT_EQ(index.find(4), std::optional<std::size_t>(3));
  EXPECT_EQ(index.find(5), std::nullopt);
  EXPECT_EQ(index.find(100), std::nullopt);
  EXPECT_EQ(ServiceIdIndex({}).find(0), std::nullopt);
}

TEST(ServiceTest, IndicesAreOrderedBySize) {
  // LASTSEG iterates the array front-to-back expecting ascending sizes.
  int previous = 0;
  for (int index = 0; index < kInstanceSizeCount; ++index) {
    const int gpcs = instance_size_from_index(index);
    EXPECT_GT(gpcs, previous);
    previous = gpcs;
  }
}

TEST(ServiceTest, TripletFromProfilePoint) {
  profiler::ProfilePoint point;
  point.model = "resnet-50";
  point.gpcs = 2;
  point.batch = 16;
  point.procs = 3;
  point.throughput = 1234.5;
  point.latency_ms = 38.9;
  point.sm_occupancy = 0.91;
  point.memory_gib = 5.5;
  const Triplet triplet = to_triplet(point);
  EXPECT_EQ(triplet.gpcs, 2);
  EXPECT_EQ(triplet.batch, 16);
  EXPECT_EQ(triplet.procs, 3);
  EXPECT_DOUBLE_EQ(triplet.throughput, 1234.5);
  EXPECT_DOUBLE_EQ(triplet.throughput_per_gpc(), 1234.5 / 2.0);
  EXPECT_TRUE(triplet.valid());
}

TEST(ServiceTest, OomPointCannotBecomeTriplet) {
  profiler::ProfilePoint point;
  point.oom = true;
  EXPECT_THROW((void)to_triplet(point), std::logic_error);
}

TEST(ServiceTest, DefaultTripletInvalid) {
  const Triplet triplet;
  EXPECT_FALSE(triplet.valid());
  EXPECT_DOUBLE_EQ(triplet.throughput_per_gpc(), 0.0);
}

TEST(ServiceTest, ServicesFromCsvParsesRows) {
  const auto parsed = services_from_csv(
      "id,model,slo_latency_ms,request_rate\n"
      "3, resnet-50, 120.5, 400\n"
      "\n"
      "2147483647,bert-base,50,0\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const std::vector<ServiceSpec>& services = parsed.value();
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0].id, 3);
  EXPECT_EQ(services[0].model, "resnet-50");
  EXPECT_DOUBLE_EQ(services[0].slo_latency_ms, 120.5);
  EXPECT_DOUBLE_EQ(services[0].request_rate, 400.0);
  EXPECT_FALSE(services[0].llm.has_value());
  EXPECT_EQ(services[1].id, 2147483647);
  EXPECT_EQ(services[1].model, "bert-base");
  EXPECT_DOUBLE_EQ(services[1].request_rate, 0.0);

  const auto header_only = services_from_csv("id,model,slo_latency_ms,request_rate\n");
  ASSERT_TRUE(header_only.ok());
  EXPECT_TRUE(header_only.value().empty());
}

TEST(ServiceTest, ServicesFromCsvRefusesBadRows) {
  const std::string header = "id,model,slo_latency_ms,request_rate\n";
  for (const char* row : {
           "99999999999,resnet-50,100,10",  // id above INT_MAX, not truncated
           "2147483648,resnet-50,100,10",
           "-1,resnet-50,100,10",
           "1,resnet-50,inf,10",             // non-finite SLO
           "1,resnet-50,nan,10",
           "1,resnet-50,-5,10",              // non-positive SLO
           "1,resnet-50,0,10",
           "1,resnet-50,100,nan",            // non-finite rate
           "1,resnet-50,100,inf",
           "1,resnet-50,100,-1",             // negative rate
           "1,resnet-50,100",                // too few fields
           "1,resnet-50,fast,10",
       }) {
    const auto parsed = services_from_csv(header + row + "\n");
    ASSERT_FALSE(parsed.ok()) << row;
    EXPECT_EQ(parsed.error().code(), ErrorCode::kInvalidArgument) << row;
    EXPECT_NE(parsed.error().message().find(row), std::string::npos)
        << "the error names the row: " << parsed.error().to_string();
  }

  // A repeated id is refused, naming the second row; it is never planned
  // as two services sharing one id.
  const auto repeated = services_from_csv(header +
                                          "7,resnet-50,100,10\n"
                                          "7,vgg-19,200,20\n");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(repeated.error().message().find("7,vgg-19,200,20"), std::string::npos);
}

TEST(ServiceTest, ConfiguredServiceTotals) {
  ConfiguredService service;
  service.spec = testing::service(0, "m", 100, 1000);
  service.opt_seg = testing::triplet(3, 400);
  service.num_opt_seg = 2;
  service.last_seg = testing::triplet(1, 150);
  EXPECT_EQ(service.total_gpcs(), 7);
  EXPECT_DOUBLE_EQ(service.total_throughput(), 950.0);
  service.last_seg.reset();
  EXPECT_EQ(service.total_gpcs(), 6);
  EXPECT_DOUBLE_EQ(service.total_throughput(), 800.0);
}

}  // namespace
}  // namespace parva::core

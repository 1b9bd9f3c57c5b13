#include "core/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tests/core/test_support.hpp"

namespace parva::core {
namespace {

/// The sorted (id, position) index ServiceIdIndex replaced, kept as its
/// oracle: equal ids sit side by side in position order, so a lower bound
/// finds the first position and every neighbour with the same id repeats.
class SortedPairsIndex {
 public:
  explicit SortedPairsIndex(const std::vector<int>& ids) {
    for (std::size_t i = 0; i < ids.size(); ++i) pairs_.emplace_back(ids[i], i);
    std::sort(pairs_.begin(), pairs_.end());
  }

  std::optional<std::size_t> find(int id) const {
    const auto it =
        std::lower_bound(pairs_.begin(), pairs_.end(), std::pair<int, std::size_t>{id, 0});
    if (it == pairs_.end() || it->first != id) return std::nullopt;
    return it->second;
  }

  std::optional<std::size_t> first_repeat() const {
    std::optional<std::size_t> first;
    for (std::size_t i = 1; i < pairs_.size(); ++i) {
      if (pairs_[i].first == pairs_[i - 1].first && (!first || pairs_[i].second < *first)) {
        first = pairs_[i].second;
      }
    }
    return first;
  }

 private:
  std::vector<std::pair<int, std::size_t>> pairs_;
};

/// A uniform int in [lo, hi].
int uniform_id(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return static_cast<int>(lo + static_cast<std::int64_t>(
                                   rng.uniform_int(0, static_cast<std::uint64_t>(hi - lo))));
}

/// `count` ids of one shape: a dense range, the whole int range, or
/// multiples of 2^16 or 2^20; some ids repeat earlier ones, and INT_MIN /
/// INT_MAX turn up now and then.
std::vector<int> random_ids(Rng& rng, std::size_t count, int shape) {
  std::vector<int> ids;
  ids.reserve(count);
  const auto n = static_cast<std::int64_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.next_double();
    if (!ids.empty() && roll < 0.05) {
      ids.push_back(ids[static_cast<std::size_t>(rng.uniform_int(0, ids.size() - 1))]);
    } else if (roll < 0.06) {
      ids.push_back(rng.next_double() < 0.5 ? INT_MIN : INT_MAX);
    } else if (shape == 0) {
      ids.push_back(uniform_id(rng, -n, n));
    } else if (shape == 1) {
      ids.push_back(uniform_id(rng, INT_MIN, INT_MAX));
    } else {
      const int stride_bits = shape == 2 ? 16 : 20;
      const std::int64_t reach = (std::int64_t{1} << (31 - stride_bits)) - 1;
      ids.push_back(uniform_id(rng, -reach, reach) * (1 << stride_bits));
    }
  }
  return ids;
}

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

TEST(ServiceTest, IdIndexMatchesSortedPairsOracle) {
  Rng rng(2025);
  // Tiny tables, where probing wraps on most collisions, power-of-two
  // boundaries, and random sizes up to 5,000.
  std::vector<std::size_t> sizes = {0, 1023, 1024, 1025, 2048, 5000};
  for (std::size_t n = 1; n <= 8; ++n) sizes.insert(sizes.end(), 8, n);
  for (int extra = 0; extra < 40; ++extra) {
    sizes.push_back(static_cast<std::size_t>(rng.uniform_int(0, 5000)));
  }
  for (std::size_t list = 0; list < sizes.size(); ++list) {
    const int shape = static_cast<int>(list % 4);
    const std::vector<int> ids = random_ids(rng, sizes[list], shape);
    const SortedPairsIndex oracle(ids);
    std::vector<ServiceSpec> services;
    std::vector<ConfiguredService> configured;
    for (const int id : ids) {
      services.push_back(testing::service(id, "m", 100, 1));
      configured.emplace_back().spec = services.back();
    }
    const ServiceIdIndex index(services);
    const ServiceIdIndex configured_index = ServiceIdIndex::for_configured(configured);
    const std::string where =
        "list " + std::to_string(list) + " of " + std::to_string(ids.size()) + " ids";
    EXPECT_EQ(index.first_repeat(), oracle.first_repeat()) << where;
    EXPECT_EQ(configured_index.first_repeat(), oracle.first_repeat()) << where;

    // Every present id, its neighbours, the int extremes and random ids,
    // most of them absent.
    std::vector<int> queries = {INT_MIN, INT_MAX, 0, -1};
    for (const int id : ids) {
      queries.push_back(id);
      if (id != INT_MAX) queries.push_back(id + 1);
      if (id != INT_MIN) queries.push_back(id - 1);
    }
    for (int q = 0; q < 200; ++q) queries.push_back(random_ids(rng, 1, shape).front());
    for (const int id : queries) {
      const auto expected = oracle.find(id);
      ASSERT_EQ(index.find(id), expected) << where << ", id " << id;
      ASSERT_EQ(configured_index.find(id), expected) << where << ", id " << id;
    }
  }
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

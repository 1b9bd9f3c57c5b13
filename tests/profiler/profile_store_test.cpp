#include "profiler/profile_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "profiler/profiler.hpp"

namespace parva::profiler {
namespace {

ProfileSet sample_set() {
  perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
  Profiler profiler(perf);
  return profiler.profile_all({"resnet-50", "inceptionv3"});
}

TEST(ProfileStoreTest, RoundTripThroughCsv) {
  const ProfileSet original = sample_set();
  const std::string csv = to_csv(original);
  const auto restored = from_csv(csv);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value().size(), original.size());
  for (const auto& table : original.tables()) {
    const ProfileTable* loaded = restored.value().find(table.model());
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->size(), table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
      const ProfilePoint& a = table.points()[i];
      const ProfilePoint& b = loaded->points()[i];
      EXPECT_EQ(a.gpcs, b.gpcs);
      EXPECT_EQ(a.batch, b.batch);
      EXPECT_EQ(a.procs, b.procs);
      EXPECT_EQ(a.oom, b.oom);
      EXPECT_NEAR(a.throughput, b.throughput, 1e-3);
      EXPECT_NEAR(a.latency_ms, b.latency_ms, 1e-3);
    }
  }
}

TEST(ProfileStoreTest, BadHeaderRejected) {
  const auto result = from_csv("wrong,header\n1,2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST(ProfileStoreTest, MalformedRowRejected) {
  const std::string header =
      "model,gpcs,batch,procs,oom,throughput,latency_ms,sm_occupancy,memory_gib\n";
  for (const char* row : {
           "resnet-50,1,2",
           "resnet-50,x,2,1,0,1.0,1.0,0.5,1.0",
           // Sizes are positive ints: 2^32 + 1 must not narrow to 1.
           "resnet-50,4294967297,2,1,0,1.0,1.0,0.5,1.0",
           "resnet-50,2147483648,2,1,0,1.0,1.0,0.5,1.0",
           "resnet-50,1,4294967297,1,0,1.0,1.0,0.5,1.0",
           "resnet-50,1,2,4294967297,0,1.0,1.0,0.5,1.0",
           "resnet-50,0,2,1,0,1.0,1.0,0.5,1.0",
           "resnet-50,1,0,1,0,1.0,1.0,0.5,1.0",
           "resnet-50,1,2,0,0,1.0,1.0,0.5,1.0",
           // Every measured double is finite.
           "resnet-50,1,2,1,0,inf,1.0,0.5,1.0",
           "resnet-50,1,2,1,0,1.0,nan,0.5,1.0",
           "resnet-50,1,2,1,0,1.0,1.0,-inf,1.0",
           "resnet-50,1,2,1,0,1.0,1.0,0.5,nan",
       }) {
    const auto result = from_csv(header + row + "\n");
    ASSERT_FALSE(result.ok()) << row;
    EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument) << row;
  }
}

TEST(ProfileStoreTest, EmptyBodyIsEmptySet) {
  const auto result = from_csv(
      "model,gpcs,batch,procs,oom,throughput,latency_ms,sm_occupancy,memory_gib\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 0u);
}

TEST(ProfileStoreTest, FileRoundTrip) {
  const ProfileSet original = sample_set();
  const std::string path =
      (std::filesystem::temp_directory_path() / "parva_profile_test.csv").string();
  ASSERT_TRUE(save_csv_file(original, path).ok());
  const auto restored = load_csv_file(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), original.size());
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, MissingFile) {
  const auto result = load_csv_file("/nonexistent/path/profiles.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace parva::profiler

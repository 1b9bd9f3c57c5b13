#include "gpu/gpu_cluster.hpp"

#include <gtest/gtest.h>

namespace parva::gpu {
namespace {

TEST(GpuClusterTest, InitialSize) {
  GpuCluster cluster(8);
  EXPECT_EQ(cluster.size(), 8u);
  EXPECT_EQ(cluster.gpus_in_use(), 0u);
}

TEST(GpuClusterTest, ElasticGrowth) {
  GpuCluster cluster(1);
  const auto id = cluster.create_instance(3, 2);  // index beyond current size
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(cluster.size(), 4u);
  EXPECT_EQ(id.value().gpu, 3);
}

TEST(GpuClusterTest, FindInstance) {
  GpuCluster cluster(2);
  const auto id = cluster.create_instance(0, 4).value();
  const MigInstance* instance = cluster.find_instance(id);
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->gpcs(), 4);
  EXPECT_EQ(cluster.find_instance({5, 0}), nullptr);
  EXPECT_EQ(cluster.find_instance({0, 99}), nullptr);
}

TEST(GpuClusterTest, DestroyInstance) {
  GpuCluster cluster(1);
  const auto id = cluster.create_instance(0, 2).value();
  ASSERT_TRUE(cluster.destroy_instance(id).ok());
  EXPECT_EQ(cluster.find_instance(id), nullptr);
  EXPECT_FALSE(cluster.destroy_instance(id).ok());
}

TEST(GpuClusterTest, UsageAccounting) {
  GpuCluster cluster(3);
  (void)cluster.create_instance(0, 4);
  (void)cluster.create_instance(0, 3);
  (void)cluster.create_instance(2, 1);
  EXPECT_EQ(cluster.gpus_in_use(), 2u);
  EXPECT_EQ(cluster.total_allocated_gpcs(), 8);
}

TEST(GpuClusterTest, ResetClearsAll) {
  GpuCluster cluster(2);
  (void)cluster.create_instance(0, 7);
  (void)cluster.create_instance(1, 7);
  cluster.reset();
  EXPECT_EQ(cluster.gpus_in_use(), 0u);
  EXPECT_EQ(cluster.total_allocated_gpcs(), 0);
}

TEST(GpuClusterTest, OutOfRangeAccessThrows) {
  GpuCluster cluster(1);
  EXPECT_THROW(cluster.gpu(1), std::logic_error);
}

}  // namespace
}  // namespace parva::gpu

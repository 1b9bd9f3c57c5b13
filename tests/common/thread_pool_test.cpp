#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace parva {
namespace {

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("task failed");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // An outer parallel_for task issuing an inner parallel_for on the SAME
  // pool would deadlock if the caller only waited (every worker waiting for
  // workers). The cooperative caller drains its own range, so this must
  // terminate with every (i, j) pair visited.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "pair " << k;
  }
}

TEST(ThreadPoolTest, TriplyNestedParallelForCompletes) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForOnSingleWorkerPool) {
  // One worker, caller outside the pool: the caller and the lone worker
  // must between them drain both levels without any free worker to lean on.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(5, [&](std::size_t) {
    pool.parallel_for(7, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 35);
}

TEST(ThreadPoolTest, ExceptionInNestedParallelForPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t i) {
                                   pool.parallel_for(4, [&](std::size_t j) {
                                     if (i == 2 && j == 3) {
                                       throw std::runtime_error("inner failed");
                                     }
                                   });
                                 }),
               std::runtime_error);
}

}  // namespace
}  // namespace parva

// Nesting-safe thread pool for the sharded DES engine and seed sweeps
// (shard windows, multi-seed simulations). Its one entry point is
// parallel_for, and its caller is a full participant: it claims indices
// from the same atomic cursor as the recruited workers, so the loop
// completes even if every worker is busy — including when the caller IS a
// pool worker executing an outer parallel_for task. Nested fork-join of
// any depth on one shared pool cannot deadlock, because each level's
// caller can always drain its own range
// (tests/serving/nested_pool_test.cpp stresses this under tsan).
//
// Recruited helpers wait in one FIFO queue behind one mutex: tasks here
// are coarse (whole simulations, shard windows), so a lock-free queue
// would not pay.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace parva {

class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) and waits for completion. The calling
  /// thread participates (it claims indices alongside the recruited
  /// workers), so this is safe to call from inside a pool task — nested
  /// parallel_for on the same pool makes progress by construction.
  /// Every index is attempted even after a failure; the first exception
  /// (in completion order) is rethrown once all indices finished.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  using Task = std::function<void()>;

  /// One parallel_for execution. Shared (via shared_ptr) with recruited
  /// worker tasks, which may outlive the call: a stale helper that runs
  /// after completion sees an exhausted cursor and exits without touching
  /// `fn`, which is only valid while the caller waits.
  struct ForJob {
    ForJob(std::size_t count, const std::function<void(std::size_t)>& body)
        : n(count), fn(&body) {}

    const std::size_t n;
    const std::function<void(std::size_t)>* const fn;
    std::atomic<std::size_t> cursor{0};  ///< next unclaimed index
    std::atomic<std::size_t> done{0};    ///< fn calls finished (ok or not)
    Mutex mutex;
    // condition_variable_any: waits on MutexLock (the annotated guard).
    std::condition_variable_any cv;
    std::exception_ptr error PARVA_GUARDED_BY(mutex);
  };

  void worker_loop();
  /// Claims indices of `job` until the range is exhausted; records the
  /// first error and signals the job's cv as the last index completes.
  static void drain(ForJob& job);

  // Written only by the constructor (before any worker can observe it) and
  // joined by the destructor; size() reads it lock-free on that basis.
  std::vector<std::thread> workers_;  // parva-audit: allow(R7)
  std::deque<Task> queue_ PARVA_GUARDED_BY(mutex_);
  Mutex mutex_;
  // condition_variable_any: waits on MutexLock (the annotated scoped guard).
  std::condition_variable_any cv_;
  bool stopping_ PARVA_GUARDED_BY(mutex_) = false;
};

}  // namespace parva

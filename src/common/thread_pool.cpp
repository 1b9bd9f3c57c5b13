#include "common/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace parva {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    Task task;
    {
      // Explicit predicate loop (not the wait(lock, pred) overload): the
      // thread-safety analysis treats a predicate lambda as a separate
      // function that touches guarded members without visibly holding the
      // capability.
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) break;  // stopping, and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::drain(ForJob& job) {
  while (true) {
    const std::size_t i = job.cursor.fetch_add(1);
    if (i >= job.n) return;
    try {
      (*job.fn)(i);
    } catch (...) {
      MutexLock lock(job.mutex);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.done.fetch_add(1) + 1 == job.n) {
      // Completion edge: synchronise with the waiting caller. Taking the
      // job mutex before notifying closes the gap between its done-check
      // and its cv.wait.
      MutexLock lock(job.mutex);
      job.cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto job = std::make_shared<ForJob>(n, fn);
  // Recruit up to size() helpers; the caller participates regardless, so
  // helpers that never get a worker (or arrive after the range is drained)
  // are harmless no-ops holding a reference to the job.
  const std::size_t helpers = std::min(n - 1, size());
  for (std::size_t h = 0; h < helpers; ++h) {
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([job] { drain(*job); });
    }
    cv_.notify_one();
  }
  drain(*job);
  MutexLock lock(job->mutex);
  while (job->done.load() < n) job->cv.wait(lock);
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace parva

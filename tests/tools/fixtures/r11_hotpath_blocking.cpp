// Golden fixture: rule R11 -- blocking operations transitively reachable
// from the hot-path root Shard::advance. The chain is
// advance -> drain_batch -> flush_metrics; the lock, the iostream write,
// and the pool submit are each pinned in audit_test.cpp.
struct FixtureMutex {};
struct MutexLock {
  explicit MutexLock(FixtureMutex& m);
};
struct FixturePool {
  void submit(int task);
};

struct Shard {
  void advance();
  void drain_batch();
  void flush_metrics();
  FixtureMutex metrics_mutex_;
  FixturePool pool_;
};

inline void Shard::advance() {
  drain_batch();
}

inline void Shard::drain_batch() {
  flush_metrics();
  pool_.submit(7);
}

inline void Shard::flush_metrics() {
  MutexLock guard(metrics_mutex_);
  std::cout << "metrics flushed\n";
}

// The allocation class: a node-based std::map insert allocates on every
// call, so it is flagged under the hot-path root EventQueue::pop.
struct EventQueue {
  void pop();
  std::map<int, int> retired_;
};

inline void EventQueue::pop() {
  retired_.insert({0, 0});
}

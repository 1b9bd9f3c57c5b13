// Clang thread-safety annotations (PARVA_GUARDED_BY and friends) plus
// capability-annotated mutex wrappers. Under Clang with -Wthread-safety the
// compiler proves every annotated member is only touched with its lock
// held; under GCC (which has no such analysis) every macro expands to
// nothing, so the annotations cost nothing and gate nothing locally. The
// clang-thread-safety CI job builds with -Wthread-safety -Werror to verify
// the annotations semantically; parva_audit rule R7 enforces syntactically
// that every mutable member of a mutex-owning class carries one.
//
// libstdc++'s std::mutex is not capability-annotated, so naively writing
// GUARDED_BY(mutex_) on members locked via std::lock_guard<std::mutex>
// produces false positives under Clang. parva::Mutex wraps std::mutex with
// the capability attribute and parva::MutexLock is the SCOPED_CAPABILITY
// guard; both degrade to the plain std types' behavior everywhere.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PARVA_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PARVA_THREAD_ANNOTATION
#define PARVA_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define PARVA_CAPABILITY(x) PARVA_THREAD_ANNOTATION(capability(x))
#define PARVA_SCOPED_CAPABILITY PARVA_THREAD_ANNOTATION(scoped_lockable)
#define PARVA_GUARDED_BY(x) PARVA_THREAD_ANNOTATION(guarded_by(x))
#define PARVA_PT_GUARDED_BY(x) PARVA_THREAD_ANNOTATION(pt_guarded_by(x))
#define PARVA_REQUIRES(...) PARVA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PARVA_ACQUIRE(...) PARVA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PARVA_RELEASE(...) PARVA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PARVA_EXCLUDES(...) PARVA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PARVA_RETURN_CAPABILITY(x) PARVA_THREAD_ANNOTATION(lock_returned(x))
#define PARVA_NO_THREAD_SAFETY_ANALYSIS PARVA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace parva {

/// std::mutex with the Clang `capability` attribute so members can be
/// declared PARVA_GUARDED_BY(m_) and the analysis tracks acquisitions.
class PARVA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PARVA_ACQUIRE() { mutex_.lock(); }
  void unlock() PARVA_RELEASE() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

/// Scoped exclusive guard over parva::Mutex: the std::lock_guard analogue
/// the analysis understands. Satisfies BasicLockable (relockable via
/// lock()/unlock()) so std::condition_variable_any can wait on it.
class PARVA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) PARVA_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() PARVA_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // condition_variable_any::wait unlocks and relocks the guard around the
  // sleep; the analysis sees the capability as continuously held, which is
  // the intended semantics for the waiting thread's critical section.
  void lock() PARVA_ACQUIRE() { mutex_.lock(); }
  void unlock() PARVA_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

}  // namespace parva

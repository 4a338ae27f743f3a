// Thread-safety capability annotations (DESIGN.md §6 rule L8).
//
// The macros map to clang's -Wthread-safety capability attributes when the
// compiler understands them and expand to nothing everywhere else, so gcc
// builds (the default toolchain here) compile the exact same source. Clang
// builds add -Wthread-safety -Werror=thread-safety (see the top-level
// CMakeLists.txt), which turns "touched guarded state without the lock"
// into a build failure — the same annotate-then-enforce discipline Envoy
// and Abseil use for their worker-thread splits.
//
// Contract (enforced lexically by scale_lint rule L8):
//   * These macros are the only sanctioned spelling; raw
//     __attribute__((guarded_by(...))) etc. outside this header fail lint.
//   * A file using any SCALE_* macro must reach this header through its
//     include closure.
//   * SCALE_GUARDED_BY must name a capability declared in the same file,
//     and every declared mutex must be referenced by at least one
//     annotation — an unannotated lock guards nothing the analyzer can see.
//
// The simulator starts no threads, so the tree holds zero mutexes (the
// engine is single-threaded by design); scale::common::Mutex below is the
// type any future cross-thread state must use so its guards are analyzable
// from day one.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define SCALE_THREAD_ANNOTATION_IMPL(x) __has_attribute(x)
#else
#define SCALE_THREAD_ANNOTATION_IMPL(x) 0
#endif

#if SCALE_THREAD_ANNOTATION_IMPL(capability)
#define SCALE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SCALE_THREAD_ANNOTATION(x)
#endif

/// A type that is a lock: scale::common::Mutex, or a wrapper exposing
/// lock()/unlock() semantics the analyzer should track.
#define SCALE_CAPABILITY(x) SCALE_THREAD_ANNOTATION(capability(x))

/// RAII lock holders (acquire in ctor, release in dtor).
#define SCALE_SCOPED_CAPABILITY SCALE_THREAD_ANNOTATION(scoped_lockable)

/// Data members/globals readable+writable only while holding the lock.
#define SCALE_GUARDED_BY(x) SCALE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members whose *pointee* is protected by the lock.
#define SCALE_PT_GUARDED_BY(x) SCALE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions that acquire / release the capability.
#define SCALE_ACQUIRE(...) \
  SCALE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SCALE_ACQUIRE_SHARED(...) \
  SCALE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define SCALE_RELEASE(...) \
  SCALE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SCALE_RELEASE_SHARED(...) \
  SCALE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define SCALE_TRY_ACQUIRE(...) \
  SCALE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Functions that must be called with / without the capability held.
#define SCALE_REQUIRES(...) \
  SCALE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SCALE_REQUIRES_SHARED(...) \
  SCALE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define SCALE_EXCLUDES(...) SCALE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define SCALE_ASSERT_CAPABILITY(x) \
  SCALE_THREAD_ANNOTATION(assert_capability(x))
#define SCALE_RETURN_CAPABILITY(x) SCALE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch — annotate *why* at the use site when you must use it.
#define SCALE_NO_THREAD_SAFETY_ANALYSIS \
  SCALE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace scale::common {

/// std::mutex with the capability attribute attached. libstdc++'s mutex is
/// not annotated, so guarding members with a bare std::mutex makes clang
/// warn that the guard is not a capability; routing through this wrapper
/// keeps -Wthread-safety fully engaged.
class SCALE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SCALE_ACQUIRE() { mu_.lock(); }
  void unlock() SCALE_RELEASE() { mu_.unlock(); }
  bool try_lock() SCALE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII holder for Mutex — the only way hot-path code should take a lock
/// (early returns and exceptions release correctly).
class SCALE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SCALE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SCALE_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace scale::common

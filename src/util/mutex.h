// Annotated synchronization primitives.
//
// Thin wrappers over std::mutex / std::condition_variable_any that carry the
// clang thread-safety capability annotations (util/thread_annotations.h).
// The std primitives themselves are unannotated, so locking through them is
// invisible to `-Wthread-safety`; every lock in the library goes through
// these types instead, which is what lets the clang CI entry machine-check
// the locking discipline protecting the certificate-serving and
// parallel-training state.
//
// The wrappers add no semantics: Mutex is exactly a std::mutex, MutexLock is
// a scoped lock with explicit Unlock/Lock for the dispatcher's
// unlock-run-relock pattern, and CondVar is a condition variable that waits
// on a Mutex directly (std::condition_variable_any accepts any
// BasicLockable, so no unannotated std::unique_lock has to appear at the
// wait sites).  Doorbell composes Mutex + CondVar with an atomic sleeper
// count into the wakeup primitive the serving dispatchers sleep on.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/thread_annotations.h"

namespace cocktail::util {

/// std::mutex with the `capability` annotation.  Satisfies Lockable, so it
/// still composes with std generic code where needed.
class COCKTAIL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() COCKTAIL_ACQUIRE() { m_.lock(); }
  void unlock() COCKTAIL_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() COCKTAIL_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

 private:
  std::mutex m_;
};

/// Scoped lock over Mutex.  Beyond plain RAII it supports the
/// unlock-work-relock shape ControllerServer's dispatcher uses (run the
/// drained slice without the queue lock): `Unlock()` / `Lock()` are
/// annotated so the analysis tracks the lock state across the gap, and the
/// destructor releases only when currently held.
class COCKTAIL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) COCKTAIL_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() COCKTAIL_RELEASE() {
    if (held_) mutex_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the mutex before the scope ends (dispatcher "run the batch
  /// unlocked" gap).  Must currently be held.
  void Unlock() COCKTAIL_RELEASE() {
    held_ = false;
    mutex_.unlock();
  }

  /// Reacquires after Unlock().
  void Lock() COCKTAIL_ACQUIRE() {
    mutex_.lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mutex_;
  bool held_ = true;
};

/// Condition variable waiting on an annotated Mutex (through MutexLock).
///
/// The predicate overloads take the predicate as a callable evaluated with
/// the lock held.  A predicate reading COCKTAIL_GUARDED_BY state must carry
/// its own annotation, because the analysis treats a lambda body as a
/// separate function:
///
///   cv.wait(lock, [this]() COCKTAIL_REQUIRES(mutex_) { return ready_; });
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// One bare wait; handle spurious wakes at the call site.
  // wait() releases the mutex while blocked and reacquires before
  // returning — a net no-op on the lock state that the analysis cannot see
  // inside std::condition_variable_any, hence the opt-out.
  void wait(MutexLock& lock) COCKTAIL_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(lock.mutex_);
  }

  /// Blocks until `pred()` holds.
  template <class Predicate>
  void wait(MutexLock& lock,
            Predicate pred) COCKTAIL_NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) cv_.wait(lock.mutex_);
  }

  /// Blocks until `pred()` holds or `timeout` elapsed; returns pred().
  template <class Rep, class Period, class Predicate>
  [[nodiscard]] bool wait_for(MutexLock& lock,
                const std::chrono::duration<Rep, Period>& timeout,
                Predicate pred) COCKTAIL_NO_THREAD_SAFETY_ANALYSIS {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (cv_.wait_until(lock.mutex_, deadline) == std::cv_status::timeout)
        return pred();
    }
    return true;
  }

 private:
  std::condition_variable_any cv_;
};

/// Wakeup doorbell for threads that poll lock-free state.
///
/// The serving dispatchers pop from lock-free MPMC rings, so there is no
/// queue mutex whose condition variable producers could signal.  Doorbell
/// fills that gap: a consumer that finds its ring empty sleeps in
/// `wait_for`, and a producer `ring()`s after publishing work.
///
/// Memory-order contract (documented here per the PR 7 policy):
///
///   sleepers_ is seq_cst on both sides.  The producer publishes its work
///   (itself a release/acquire edge in the MPMC queue), then reads
///   sleepers_; the consumer increments sleepers_ *before* re-checking the
///   predicate and sleeping.  With both accesses seq_cst, at least one of
///   the two races resolves safely: either the producer sees sleepers_ > 0
///   and notifies under the mutex, or the consumer's predicate re-check
///   sees the new work.  The mutex around notify/wait closes the classic
///   lost-wakeup window between the predicate check and the sleep.
///
/// Even so, all waits are *timed*: a wakeup missed through any path not
/// covered above costs one `timeout` period, never a hang.  ring() is
/// wait-free for the producer when nobody sleeps (one atomic load).
class Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Producer side: call after the new work is visible.  Cheap when no
  /// consumer is sleeping.
  void ring() {
    if (sleepers_.load() == 0) return;
    // Taking the mutex orders this notify after a racing consumer's
    // predicate-check-then-wait, so the notify cannot fall in the gap.
    MutexLock lock(mutex_);
    cv_.notify_all();
  }

  /// Consumer side: blocks until `pred()` holds, a ring arrives and
  /// `pred()` holds, or `timeout` elapses.  Returns the final `pred()`.
  /// `pred` must read only state safe to read under this doorbell's mutex
  /// (atomics / lock-free structures).
  template <class Rep, class Period, class Predicate>
  [[nodiscard]] bool wait_for(const std::chrono::duration<Rep, Period>& timeout,
                              Predicate pred) {
    sleepers_.fetch_add(1);
    MutexLock lock(mutex_);
    const bool satisfied = cv_.wait_for(lock, timeout, pred);
    lock.Unlock();
    sleepers_.fetch_sub(1);
    return satisfied;
  }

 private:
  // Count of consumers inside wait_for; seq_cst (see the contract above).
  std::atomic<std::uint32_t> sleepers_{0};
  Mutex mutex_;
  CondVar cv_;
};

}  // namespace cocktail::util

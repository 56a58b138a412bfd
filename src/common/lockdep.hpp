// Runtime lock-order validation ("lockdep") for the concurrency layer.
//
// A TrackedMutex is a drop-in std::mutex replacement that, when the build
// carries IMPRESS_LOCKDEP=ON, records which lock classes each thread holds
// and folds every nested acquisition into a global lock-order graph. A
// cycle in that graph is a *potential* ABBA deadlock: it is reported the
// first time the inconsistent ordering is exercised, even if the unlucky
// interleaving that would actually deadlock never fires. Held-lock
// assertions additionally flag blocking calls (channel sends/receives,
// condition waits, pool joins) made while any tracked mutex is held.
//
// Locks are tracked per *class* (the name string passed to the
// constructor, e.g. "Channel::mutex_"), not per instance — mirroring the
// Linux kernel's lockdep, so one observed ordering covers every instance
// pair of the same two classes.
//
// When IMPRESS_LOCKDEP is OFF (the default), TrackedMutex is an inline
// forwarding wrapper around std::mutex with no extra members and the
// report/clear entry points collapse to constants, so the gate costs
// nothing in normal builds.
//
// ---------------------------------------------------------------------------
// Canonical mutex acquisition order (hold an earlier lock while taking a
// later one, never the reverse):
//
//   TaskManager::mutex_
//     -> Pilot::mutex_                  (route() peeks queue lengths)
//          -> ThreadExecutor::mutex_    (place() launches under pilot lock)
//          -> ThreadPool::mutex_        (launch submits to the pool)
//          -> ResourcePool::mutex_      (scheduler claims/releases slots)
//     -> leaves (never hold another tracked lock while holding one of
//        these, and they call out to nothing):
//          UidGenerator::mutex_, UtilizationRecorder::mutex_,
//          Channel::mutex_, Session::timer_mutex_
//
// Deliberate exceptions encoded in the runtime: Pilot::cancel()/fail()
// drop Pilot::mutex_ before calling back into the executor or the
// TaskManager (requeue/terminal handlers), and TaskManager::finalize()
// invokes user callbacks outside mutex_ — both prevent the reverse edges
// that would close a cycle. hpc::Profiler's internal buffer locks are an
// untracked leaf (hot path; they never take another lock).
// ---------------------------------------------------------------------------

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#ifndef IMPRESS_LOCKDEP_COMPILED_IN
#define IMPRESS_LOCKDEP_COMPILED_IN 0
#endif

namespace impress::common::lockdep {

/// True when the build carries lockdep instrumentation.
inline constexpr bool kCompiledIn = IMPRESS_LOCKDEP_COMPILED_IN != 0;

#if IMPRESS_LOCKDEP_COMPILED_IN

/// Intern a lock class by name; all instances constructed with the same
/// name share one node in the lock-order graph.
std::uint32_t register_class(const char* name);

// Instrumentation hooks called by TrackedMutex / CondVar. `nested` marks
// an address-ordered acquisition (MultiGuard): cross-class edges are
// still recorded but same-class nesting is allowed.
void note_lock_attempt(std::uint32_t cls, const void* instance, bool nested);
void note_lock_acquired(std::uint32_t cls, const void* instance,
                        const char* name);
void note_try_acquired(std::uint32_t cls, const void* instance,
                       const char* name);
void note_unlock(const void* instance);
void note_cv_wait_begin(const void* instance, const char* name);
void note_cv_wait_end(std::uint32_t cls, const void* instance,
                      const char* name);

/// Held-lock assertion: records a violation if the calling thread holds
/// any tracked mutex other than `held_ok` when entering the blocking call
/// described by `what`.
void check_blocking(const char* what, const void* held_ok = nullptr);

/// Violations recorded so far (deduplicated, insertion order).
[[nodiscard]] std::vector<std::string> report();
[[nodiscard]] std::size_t violation_count();

/// Reset violations and the lock-order graph (test isolation). Lock
/// classes stay registered — live mutexes keep their ids.
void clear();

/// Abort the process on the first violation (also enabled by setting the
/// IMPRESS_LOCKDEP_ABORT environment variable to anything but "0"/empty).
/// The lockdep ctest preset runs with it on so stress suites fail loudly.
void set_abort_on_violation(bool on);

#else  // !IMPRESS_LOCKDEP_COMPILED_IN

inline void check_blocking(const char*, const void* = nullptr) noexcept {}
[[nodiscard]] inline std::vector<std::string> report() { return {}; }
[[nodiscard]] inline constexpr std::size_t violation_count() noexcept {
  return 0;
}
inline void clear() noexcept {}
inline void set_abort_on_violation(bool) noexcept {}

#endif  // IMPRESS_LOCKDEP_COMPILED_IN

}  // namespace impress::common::lockdep

namespace impress::common {

#if IMPRESS_LOCKDEP_COMPILED_IN

/// std::mutex drop-in that feeds the lock-order graph. Satisfies
/// Lockable, so std::lock_guard / std::unique_lock / std::scoped_lock all
/// work unchanged (scoped_lock's try-lock rotation records held sets but
/// no ordering edges, so its deadlock-avoidance never trips a false
/// cycle).
class TrackedMutex {
 public:
  explicit TrackedMutex(const char* name)
      : name_(name), class_(lockdep::register_class(name)) {}
  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  void lock() {
    lockdep::note_lock_attempt(class_, this, /*nested=*/false);
    m_.lock();
    lockdep::note_lock_acquired(class_, this, name_);
  }
  [[nodiscard]] bool try_lock() {
    if (!m_.try_lock()) return false;
    lockdep::note_try_acquired(class_, this, name_);
    return true;
  }
  void unlock() {
    lockdep::note_unlock(this);
    m_.unlock();
  }

  /// Underlying std::mutex, for CondVar's adopt/release dance.
  [[nodiscard]] std::mutex& native() noexcept { return m_; }
  [[nodiscard]] const char* lockdep_name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t lockdep_class() const noexcept { return class_; }

 private:
  friend class MultiGuard;
  /// MultiGuard's address-ordered acquisition: same-class nesting allowed.
  void lock_nested() {
    lockdep::note_lock_attempt(class_, this, /*nested=*/true);
    m_.lock();
    lockdep::note_lock_acquired(class_, this, name_);
  }

  std::mutex m_;
  const char* name_;
  std::uint32_t class_;
};

/// std::recursive_mutex drop-in; relocking an instance the thread already
/// holds records no edges (and no violation).
class TrackedRecursiveMutex {
 public:
  explicit TrackedRecursiveMutex(const char* name)
      : name_(name), class_(lockdep::register_class(name)) {}
  TrackedRecursiveMutex(const TrackedRecursiveMutex&) = delete;
  TrackedRecursiveMutex& operator=(const TrackedRecursiveMutex&) = delete;

  void lock() {
    lockdep::note_lock_attempt(class_, this, /*nested=*/false);
    m_.lock();
    lockdep::note_lock_acquired(class_, this, name_);
  }
  [[nodiscard]] bool try_lock() {
    if (!m_.try_lock()) return false;
    lockdep::note_try_acquired(class_, this, name_);
    return true;
  }
  void unlock() {
    lockdep::note_unlock(this);
    m_.unlock();
  }

 private:
  std::recursive_mutex m_;
  const char* name_;
  std::uint32_t class_;
};

#else  // !IMPRESS_LOCKDEP_COMPILED_IN

class TrackedMutex {
 public:
  explicit TrackedMutex(const char*) noexcept {}
  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  void lock() { m_.lock(); }
  [[nodiscard]] bool try_lock() { return m_.try_lock(); }
  void unlock() { m_.unlock(); }
  [[nodiscard]] std::mutex& native() noexcept { return m_; }

 private:
  friend class MultiGuard;
  void lock_nested() { m_.lock(); }

  std::mutex m_;
};

class TrackedRecursiveMutex {
 public:
  explicit TrackedRecursiveMutex(const char*) noexcept {}
  TrackedRecursiveMutex(const TrackedRecursiveMutex&) = delete;
  TrackedRecursiveMutex& operator=(const TrackedRecursiveMutex&) = delete;

  void lock() { m_.lock(); }
  [[nodiscard]] bool try_lock() { return m_.try_lock(); }
  void unlock() { m_.unlock(); }

 private:
  std::recursive_mutex m_;
};

#endif  // IMPRESS_LOCKDEP_COMPILED_IN

/// Condition variable over TrackedMutex. Predicate-taking waits only: a
/// naked wait() without a predicate is exactly the lost-wakeup shape the
/// linter bans, so the API does not offer one. Waiting releases the
/// mutex, so holding *it* is fine; holding any other tracked mutex when
/// entering a wait is reported as blocking-under-lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  template <typename Pred>
  void wait(std::unique_lock<TrackedMutex>& lk, Pred pred) {
    WaitGuard g(lk);
    cv_.wait(g.inner(), std::move(pred));
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(std::unique_lock<TrackedMutex>& lk,
                std::chrono::duration<Rep, Period> timeout, Pred pred) {
    WaitGuard g(lk);
    return cv_.wait_for(g.inner(), timeout, std::move(pred));
  }

 private:
  // std::condition_variable insists on unique_lock<std::mutex>, so the
  // wait temporarily adopts the TrackedMutex's native handle and releases
  // it again afterwards (the outer unique_lock<TrackedMutex> stays the
  // owner throughout; lockdep's held set drops the mutex for the duration
  // of the wait, matching what the thread actually holds while asleep).
  class WaitGuard {
   public:
    explicit WaitGuard(std::unique_lock<TrackedMutex>& lk)
        : tm_(lk.mutex()), inner_(tm_->native(), std::adopt_lock) {
#if IMPRESS_LOCKDEP_COMPILED_IN
      lockdep::note_cv_wait_begin(tm_, tm_->lockdep_name());
#endif
    }
    ~WaitGuard() {
      inner_.release();
#if IMPRESS_LOCKDEP_COMPILED_IN
      lockdep::note_cv_wait_end(tm_->lockdep_class(), tm_,
                                tm_->lockdep_name());
#endif
    }
    WaitGuard(const WaitGuard&) = delete;
    WaitGuard& operator=(const WaitGuard&) = delete;
    [[nodiscard]] std::unique_lock<std::mutex>& inner() noexcept {
      return inner_;
    }

   private:
    TrackedMutex* tm_;
    std::unique_lock<std::mutex> inner_;
  };

  std::condition_variable cv_;
};

/// scoped_lock-style multi-acquire over TrackedMutexes: locks in instance
/// address order — a process-wide total order, so two MultiGuards over
/// the same set can never deadlock each other — and unlocks in reverse.
/// Same-class pairs (e.g. rebalancing between two Channels) are the
/// intended use; lockdep treats the ordered acquisition as nested.
class MultiGuard {
 public:
  template <typename... Ms>
  explicit MultiGuard(Ms&... ms) : n_(sizeof...(Ms)), locks_{&ms...} {
    static_assert(sizeof...(Ms) >= 2, "MultiGuard wants two or more locks");
    static_assert(sizeof...(Ms) <= kMaxLocks, "raise kMaxLocks");
    std::sort(locks_.begin(), locks_.begin() + static_cast<std::ptrdiff_t>(n_));
    locks_[0]->lock();
    for (std::size_t i = 1; i < n_; ++i) locks_[i]->lock_nested();
  }
  ~MultiGuard() {
    for (std::size_t i = n_; i > 0; --i) locks_[i - 1]->unlock();
  }
  MultiGuard(const MultiGuard&) = delete;
  MultiGuard& operator=(const MultiGuard&) = delete;

 private:
  static constexpr std::size_t kMaxLocks = 4;
  std::size_t n_;
  std::array<TrackedMutex*, kMaxLocks> locks_;
};

}  // namespace impress::common

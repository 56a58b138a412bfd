// Post-mortem analytics over profiler event streams — the numbers behind
// "middleware overhead" discussions (RADICAL-Analytics style): per-task
// wait/setup/run decomposition, concurrency profiles, and aggregate
// overhead ratios. Every analysis reads `records`, a Profiler::events()
// snapshot in record order, so a caller running several of them merges
// and sorts the profiler's buffers once.

#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hpc/profiler.hpp"

namespace impress::hpc {

/// One task's timing decomposition (all in seconds).
struct TaskTiming {
  std::string uid;
  double wait = 0.0;   ///< schedule -> exec_setup_start (queue time)
  double setup = 0.0;  ///< exec_setup_start -> exec_start
  double run = 0.0;    ///< exec_start -> exec_stop
};

/// Decompose every task that reached exec_stop. Tasks missing any of the
/// four events are skipped.
[[nodiscard]] std::vector<TaskTiming> task_timings(
    std::span<const ProfileEvent> records);

struct TimingSummary {
  std::size_t tasks = 0;
  double mean_wait = 0.0;
  double p95_wait = 0.0;
  double mean_setup = 0.0;
  double mean_run = 0.0;
  /// Middleware overhead: (wait + setup) / (wait + setup + run) over the
  /// aggregate, in [0,1].
  double overhead_fraction = 0.0;
};

[[nodiscard]] TimingSummary summarize_timings(
    std::span<const ProfileEvent> records);

/// Average number of concurrently *running* tasks per time bin over
/// [0, t_end] (t_end <= 0 uses the latest event). The empirical
/// concurrency profile behind the utilization figures.
[[nodiscard]] std::vector<double> concurrency_series(
    std::span<const ProfileEvent> records, std::size_t bins,
    double t_end = 0.0);

/// Peak of the concurrency profile (exact, not binned).
[[nodiscard]] std::size_t peak_concurrency(
    std::span<const ProfileEvent> records);

/// Fault-tolerance roll-up over the event stream: how much of the
/// campaign's work was first-attempt vs recovery.
struct RetrySummary {
  std::size_t retries = 0;        ///< failed attempts resubmitted (kRetry)
  std::size_t timeouts = 0;       ///< attempt-deadline evictions (kTimeout)
  std::size_t requeues = 0;       ///< tasks re-routed off a pilot (kRequeue)
  std::size_t pilot_failures = 0; ///< pilot outages (kPilotFailed)
  std::size_t tasks_retried = 0;  ///< distinct tasks with more than 1 attempt
  int max_attempts = 0;           ///< largest attempt count observed
};

[[nodiscard]] RetrySummary summarize_retries(
    std::span<const ProfileEvent> records);

/// Attempts per task uid: the number of kSubmit events recorded for it
/// (>= 1 for anything submitted; > 1 means the retry policy fired).
[[nodiscard]] std::map<std::string, int> attempt_counts(
    std::span<const ProfileEvent> records);

/// Roll-up of a memoization cache's behaviour over a run (the fold memo
/// cache reports through this; see fold::FoldCache::stats).
struct CacheSummary {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;  ///< resident entries at sampling time
  /// Inserts that lost a duplicate-key race: two threads missed the same
  /// key, both computed, the second computation was discarded in favour
  /// of the incumbent. Needed for conservation: every miss either sits
  /// resident, was evicted, or was a duplicate discard —
  /// misses == entries + evictions + duplicate_discards.
  std::size_t duplicate_discards = 0;

  [[nodiscard]] std::size_t lookups() const noexcept { return hits + misses; }
  /// Fraction of lookups served from cache, in [0,1] (0 when unused).
  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

}  // namespace impress::hpc

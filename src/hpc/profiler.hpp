// Event profiler, modeled on RADICAL-Pilot's profiler.
//
// Every state transition in the runtime emits a (time, entity, event)
// record. The Fig-5 breakdown (Bootstrap / Exec setup / Running) is
// computed from these records, and tests assert ordering invariants on
// them (e.g. a task never runs before it is scheduled).
//
// Concurrency: records live in a common::SeqLog, so record() appends to
// a per-thread buffer (one relaxed fetch_add for the global sequence
// number, one push under an uncontended per-buffer lock) and readers get
// the single global record order back from the seq-ordered merge.

#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/seq_log.hpp"

namespace impress::hpc {

struct ProfileEvent {
  double time = 0.0;       ///< seconds (simulated or wall)
  std::string entity;      ///< uid, e.g. "task.000003"
  std::string event;       ///< e.g. "schedule", "exec_start"
  std::string info;        ///< free-form detail
};

/// Well-known event names shared by the executors and the reporters.
namespace events {
inline constexpr std::string_view kBootstrapStart = "bootstrap_start";
inline constexpr std::string_view kBootstrapStop = "bootstrap_stop";
inline constexpr std::string_view kSubmit = "submit";
inline constexpr std::string_view kSchedule = "schedule";
inline constexpr std::string_view kExecSetupStart = "exec_setup_start";
inline constexpr std::string_view kExecStart = "exec_start";
inline constexpr std::string_view kExecStop = "exec_stop";
inline constexpr std::string_view kDone = "done";
inline constexpr std::string_view kFailed = "failed";
inline constexpr std::string_view kCancelled = "cancelled";
// Fault-tolerance events (see docs/fault_tolerance.md).
inline constexpr std::string_view kRetry = "retry";        ///< retry scheduled
inline constexpr std::string_view kTimeout = "timeout";    ///< deadline hit
inline constexpr std::string_view kRequeue = "requeue";    ///< re-routed off a dead pilot
inline constexpr std::string_view kPilotFailed = "pilot_failed";
/// Spot capacity returned: a reclaimed pilot re-entered ACTIVE.
inline constexpr std::string_view kPilotReactivated = "pilot_reactivated";
}  // namespace events

class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void record(double time, std::string_view entity, std::string_view event,
              std::string_view info = {});

  /// All events in global record order (sequence-number merged).
  [[nodiscard]] std::vector<ProfileEvent> events() const;

  [[nodiscard]] std::size_t size() const { return log_.size(); }
  void clear() { log_.clear(); }

  /// Checkpoint restore: seed the profiler with `events` as the earliest
  /// records (later record() calls sort after them). Only meaningful on
  /// an empty profiler.
  void preload(const std::vector<ProfileEvent>& events) {
    for (const ProfileEvent& e : events) log_.append(e);
  }

 private:
  common::SeqLog<ProfileEvent> log_;
};

/// Total duration attributed to each phase across all tasks, over
/// `records` in record order (a Profiler::events() snapshot):
///   "exec_setup" = sum(exec_start - exec_setup_start)
///   "running"    = sum(exec_stop - exec_start)
///   "bootstrap"  = sum(bootstrap_stop - bootstrap_start)
[[nodiscard]] std::map<std::string, double> phase_durations(
    std::span<const ProfileEvent> records);

}  // namespace impress::hpc

// Seeded fault injection for the pilot runtime.
//
// The paper's adaptivity claim only matters when things go wrong: tasks
// crash, nodes slow down, pilots die mid-campaign. The FaultInjector turns
// those events on deterministically — every fate is a pure function of
// (seed, task uid, attempt number), so a campaign with 10% injected
// failures replays bit-identically and a chaos test can bisect a failing
// seed. Both executors consult the injector at launch time; pilot outages
// are armed by the Session against its clock (engine event or timer).

#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace impress::rp {

/// One scheduled pilot failure: the pilot created by the
/// `pilot_index`-th submit_pilot() call dies at `at_s` simulated seconds.
struct PilotOutage {
  std::size_t pilot_index = 0;
  double at_s = 0.0;
};

/// One spot/preemptible-capacity reclaim: the pilot created by the
/// `pilot_index`-th submit_pilot() call is evicted at `at_s` (exactly the
/// PilotOutage fail path — queued tasks requeue, executing tasks evict)
/// and the capacity returns `down_s` seconds later, re-entering ACTIVE.
/// Meant for pilots on preemptible nodes (NodeSpec::preemptible), though
/// the schedule is honored for any pilot.
struct SpotReclaim {
  std::size_t pilot_index = 0;
  double at_s = 0.0;
  double down_s = 0.0;
};

struct FaultConfig {
  /// Probability that a task attempt crashes partway through execution
  /// (ends kFailed with an "injected fault" error, no usage recorded).
  double task_failure_rate = 0.0;
  /// Probability that an attempt runs slow (straggler node model).
  double slow_task_rate = 0.0;
  /// Duration multiplier applied to every phase of a slow attempt.
  double slow_factor = 4.0;
  /// Pilot/node outages, armed by the session at submit_pilot time. The
  /// `{}`s let designated initializers omit both lists warning-free.
  std::vector<PilotOutage> pilot_outages{};
  /// Spot-capacity reclaims (eviction + later return), armed alongside
  /// pilot_outages against the session clock.
  std::vector<SpotReclaim> spot_reclaims{};

  /// True when any fault source is configured.
  [[nodiscard]] bool any() const noexcept {
    return task_failure_rate > 0.0 || slow_task_rate > 0.0 ||
           !pilot_outages.empty() || !spot_reclaims.empty();
  }
};

class FaultInjector {
 public:
  /// The fate of one task attempt, drawn up-front at launch.
  struct AttemptFault {
    bool fail = false;           ///< crash after `fail_fraction` of the runtime
    double fail_fraction = 1.0;  ///< fraction of phase time before the crash
    double slow_factor = 1.0;    ///< multiplier on every phase duration
  };

  FaultInjector(FaultConfig config, common::Rng rng) noexcept
      : config_(std::move(config)), rng_(rng) {}

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.any(); }

  /// Draw the fate of attempt `attempt` of `task_uid`. Deterministic per
  /// (seed, uid, attempt) and side-effect free, so concurrent executor
  /// threads can call it in any order without perturbing each other —
  /// the draw forks a fresh child generator instead of advancing shared
  /// state.
  [[nodiscard]] AttemptFault draw_attempt(std::string_view task_uid,
                                          int attempt) const noexcept;

 private:
  FaultConfig config_;
  common::Rng rng_;  ///< base generator; never advanced, only forked
};

}  // namespace impress::rp

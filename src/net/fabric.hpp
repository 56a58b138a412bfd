// CoordinatorNode + run_distributed: the control side of the campaign
// fabric (docs/fabric.md).
//
// The coordinator owns the shard table. Each shard walks
//
//   unassigned --ASSIGN_SHARD+TASK_SUBMIT--> running --TASK_RESULT--> done
//        ^                                      |
//        +----------- WORKER_DEAD --------------+   (epoch++, resume from
//                                                    the latest stored
//                                                    CHECKPOINT_SHARD)
//
// Correctness mechanisms, each pinned by tests:
//   * Epoch fencing — every (re)assignment bumps the shard's epoch; any
//     TASK_RESULT / CHECKPOINT_SHARD carrying an older epoch is counted
//     stale and dropped, so a spuriously-declared-dead worker can finish
//     late without corrupting the shard table.
//   * Heartbeat timeout — the coordinator probes workers every
//     heartbeat_period ticks; heartbeat_timeout ticks of silence declare
//     the worker dead, broadcast WORKER_DEAD, and reroute its shard.
//   * Resubmission — a running shard with no progress for resubmit_after
//     ticks gets its ASSIGN_SHARD + TASK_SUBMIT re-sent (same epoch); the
//     worker side is idempotent, so this is safe under frame loss.
//   * Conservation — every (shard, epoch) submission closes exactly once:
//     by a matching TASK_RESULT or by the owner's death (FabricStats).
//
// Determinism contract: the merged campaign result equals
// core::run_sharded(config, targets, plan, checkpoint_every) bit-exactly,
// for any worker count, chaos schedule, kill plan, or transport — each
// shard is a pure function of (config, seed, membership) and PR-5
// checkpoint resume is bit-exact.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/shard.hpp"
#include "net/loopback.hpp"
#include "net/transport.hpp"
#include "net/worker.hpp"
#include "obs/obs.hpp"
#include "protein/datasets.hpp"

namespace impress::net {

struct FabricConfig {
  core::CampaignConfig campaign;
  /// Per-shard checkpoint cadence (completions); 0 = no checkpoints (and
  /// therefore no failover — a death then forces a from-scratch rerun).
  std::size_t checkpoint_every = 0;
  std::uint64_t heartbeat_period = 4;   ///< ticks between liveness probes
  std::uint64_t heartbeat_timeout = 0;  ///< silence => dead; 0 = never
  std::uint64_t resubmit_after = 64;    ///< no-progress ticks before re-send
};

/// Conservation + failover accounting (docs/fabric.md "invariants").
struct FabricStats {
  std::uint64_t submits_opened = 0;  ///< distinct (shard, epoch) submissions
  std::uint64_t submits_closed_result = 0;
  std::uint64_t submits_closed_death = 0;
  std::uint64_t resubmits = 0;     ///< duplicate sends, same epoch
  std::uint64_t stale_frames = 0;  ///< epoch-fenced discards
  std::uint64_t checkpoints_stored = 0;
  std::uint64_t workers_declared_dead = 0;
  std::uint64_t reassignments = 0;

  /// Every submission is open or closed exactly once.
  [[nodiscard]] std::uint64_t submits_open() const noexcept {
    return submits_opened - submits_closed_result - submits_closed_death;
  }
};

/// Restartable coordinator state: stored shard results and the latest
/// checkpoint per unfinished shard. A fresh CoordinatorNode restored from
/// a snapshot re-runs only the unfinished shards, resuming each from its
/// checkpoint — the coordinator-restart path of the failover contract.
struct FabricSnapshot {
  struct Shard {
    std::uint32_t shard_id = 0;
    std::uint32_t epoch = 0;  ///< restored epochs keep fencing monotone
    bool done = false;
    std::string result_json;      ///< session dump, when done
    std::uint64_t checkpoint_ordinal = 0;
    std::string checkpoint_json;  ///< latest stored document, else empty
  };
  std::vector<Shard> shards;
};

class CoordinatorNode {
 public:
  /// `targets` must outlive the node. `obs` is optional; when its metrics
  /// axis is enabled the node registers obs::FabricMetrics and counts
  /// every frame sent/received, and when tracing is enabled it opens one
  /// span per shard assignment.
  CoordinatorNode(FabricConfig config,
                  const std::vector<protein::DesignTarget>* targets,
                  core::ShardPlan plan, obs::Observability* obs = nullptr);

  /// Attach a worker link; returns the coordinator-side worker index.
  std::size_t add_worker(std::shared_ptr<Link> link);

  /// Drive one step at tick `now`: drain links, detect deaths, assign /
  /// resubmit shards, emit heartbeat probes.
  void pump(std::uint64_t now);

  [[nodiscard]] bool done() const noexcept;
  /// Merged campaign result; only valid once done().
  [[nodiscard]] core::CampaignResult result() const;

  [[nodiscard]] const FabricStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const core::ShardPlan& plan() const noexcept { return plan_; }

  [[nodiscard]] FabricSnapshot snapshot() const;
  /// Adopt a snapshot's progress. Must be called before any pump().
  void restore(const FabricSnapshot& snap);

 private:
  enum class ShardState { kUnassigned, kRunning, kDone };

  struct ShardSlot {
    ShardState state = ShardState::kUnassigned;
    std::uint32_t epoch = 0;        ///< bumped on every (re)assignment
    std::size_t owner = SIZE_MAX;   ///< worker index while running
    std::uint64_t submitted_at = 0;
    std::uint64_t last_progress = 0;
    std::string result_json;
    std::string error;  ///< terminal kError payload (result() throws it)
    std::uint64_t checkpoint_ordinal = 0;
    std::string checkpoint_json;
    std::uint64_t span = 0;  ///< open assignment span (tracing)
  };

  struct WorkerSlot {
    std::shared_ptr<Link> link;
    std::uint32_t id = 0;  ///< from HELLO
    bool registered = false;
    bool alive = true;
    std::uint64_t last_heard = 0;
    std::size_t active_shard = SIZE_MAX;
  };

  void drain(std::size_t w, std::uint64_t now);
  /// Consumes `m`: result and checkpoint payloads move into the shard slot.
  void handle(std::size_t w, Message m, std::uint64_t now);
  void declare_dead(std::size_t w, std::uint64_t now, const std::string& why);
  void assign(std::size_t shard, std::size_t w, std::uint64_t now,
              bool new_epoch);
  void send(std::size_t w, const Message& m);
  void count_rx(const Message& m);

  FabricConfig config_;
  const std::vector<protein::DesignTarget>* targets_;
  core::ShardPlan plan_;
  std::vector<ShardSlot> shards_;
  std::vector<WorkerSlot> workers_;
  FabricStats stats_;
  std::uint64_t next_task_seq_ = 1;
  std::uint64_t last_probe_ = 0;
  obs::Observability* obs_;
  std::optional<obs::FabricMetrics> metrics_;
};

// --- single-call drivers ----------------------------------------------------

struct DistributedConfig {
  FabricConfig fabric;
  std::size_t num_workers = 2;
  std::size_t num_shards = 2;
  ChaosConfig chaos;
  /// Per-worker failure injection (index-aligned; missing = no kill).
  std::vector<WorkerKillPlan> kill_plans;
  /// Safety valve for the pump loop (chaos can stretch convergence).
  std::uint64_t max_ticks = 200000;
  /// Run each worker's pump loop on its own thread (stress mode). The
  /// merged result is unchanged — only the chaos draw order moves.
  bool threaded = false;
  /// Use AF_UNIX socketpairs instead of the loopback net (no chaos knobs;
  /// ticks count pump iterations).
  bool use_sockets = false;
};

struct DistributedOutcome {
  core::CampaignResult result;
  FabricStats stats;
  LoopbackNet::Stats net;  ///< zeros in socket mode
};

/// Run one campaign over the fabric end to end. Throws std::runtime_error
/// if the campaign fails to converge within max_ticks (e.g. every worker
/// killed with no survivor to reroute to).
[[nodiscard]] DistributedOutcome run_distributed(
    const DistributedConfig& config,
    const std::vector<protein::DesignTarget>& targets,
    obs::Observability* obs = nullptr);

}  // namespace impress::net

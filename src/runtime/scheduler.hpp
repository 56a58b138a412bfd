// Agent-side scheduler: orders waiting tasks and places them onto the
// pilot's resource pool.
//
// Policies:
//  * kFifo     — strict submission order; the queue head blocks everything
//                behind it (models a plain sequential backend).
//  * kBackfill — any waiting task that fits may start, higher priority and
//                earlier submission first. This is what lets IM-RP fill
//                idle cores with sub-pipeline tasks while a wide AlphaFold
//                feature stage is still running (paper §III-B).
//
// Backfill cost: nothing is released during a pass (executors complete
// tasks through later events or other threads, and a completion needs the
// pilot lock the pass runs under), so a request shape whose allocate()
// failed cannot fit later in the same pass. The backfill pass remembers
// failed shapes, skips queued tasks of a failed shape without probing,
// and stops once every shape in the queue has failed. Campaigns queue a
// handful of shapes (full fold, feature-reuse fold, MPNN, refine), so a
// pass makes one probe per placement plus at most one failed probe per
// shape, instead of one per queued task. Placement order and allocations
// are exactly those of probing every task.

#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "hpc/resource_pool.hpp"
#include "runtime/task.hpp"

namespace impress::rp {

enum class SchedulerPolicy { kFifo, kBackfill };

[[nodiscard]] std::string_view to_string(SchedulerPolicy p) noexcept;

class Scheduler {
 public:
  /// `place` is invoked for every task the scheduler starts; the caller
  /// (the pilot) launches it on its executor.
  using PlaceFn = std::function<void(TaskPtr, hpc::Allocation)>;

  Scheduler(SchedulerPolicy policy, hpc::ResourcePool& pool, PlaceFn place)
      : policy_(policy), pool_(pool), place_(std::move(place)) {}

  /// Add a task to the waiting queue (does not schedule yet). Under
  /// kBackfill the queue is kept in priority order here — higher priority
  /// first, submission order preserved within a class — so try_schedule
  /// never has to sort.
  void enqueue(TaskPtr task);

  /// Remove a queued task; returns false if it is not waiting here.
  bool remove(const TaskPtr& task);

  /// Remove and return every waiting task (in queue order). Used when a
  /// pilot fails: its backlog is handed back to the TaskManager for
  /// re-routing instead of stranding.
  [[nodiscard]] std::deque<TaskPtr> drain();

  /// Place as many waiting tasks as the policy and free resources allow.
  /// Returns the number of tasks started.
  [[nodiscard]] std::size_t try_schedule();

  [[nodiscard]] std::size_t queue_length() const noexcept {
    return queue_.size();
  }
  /// The waiting tasks, in the order try_schedule considers them.
  [[nodiscard]] const std::deque<TaskPtr>& queued() const noexcept {
    return queue_;
  }
  [[nodiscard]] SchedulerPolicy policy() const noexcept { return policy_; }

 private:
  /// One distinct request shape in the queue: how many queued tasks ask
  /// for it, and whether allocate() already failed for it this pass.
  struct Shape {
    hpc::ResourceRequest request;
    std::size_t queued = 0;
    bool failed = false;
  };

  [[nodiscard]] Shape& shape_of(const TaskPtr& task);
  /// Count a task leaving the queue; drops the shape at zero.
  void uncount(const TaskPtr& task);

  SchedulerPolicy policy_;
  hpc::ResourcePool& pool_;
  PlaceFn place_;
  std::deque<TaskPtr> queue_;
  /// Distinct shapes of queue_ (unordered). Persistent, so a pass resets
  /// the failure memo in place and allocates nothing.
  std::vector<Shape> shapes_;
};

}  // namespace impress::rp

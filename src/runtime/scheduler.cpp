#include "runtime/scheduler.hpp"

#include <algorithm>
#include <vector>

namespace impress::rp {

std::string_view to_string(SchedulerPolicy p) noexcept {
  switch (p) {
    case SchedulerPolicy::kFifo: return "FIFO";
    case SchedulerPolicy::kBackfill: return "BACKFILL";
  }
  return "?";
}

Scheduler::Shape& Scheduler::shape_of(const TaskPtr& task) {
  const hpc::ResourceRequest& request = task->description().resources;
  for (Shape& shape : shapes_)
    if (shape.request == request) return shape;
  return shapes_.emplace_back(Shape{request, 0, false});
}

void Scheduler::uncount(const TaskPtr& task) {
  Shape& shape = shape_of(task);
  if (--shape.queued > 0) return;
  shape = shapes_.back();
  shapes_.pop_back();
}

void Scheduler::enqueue(TaskPtr task) {
  ++shape_of(task).queued;
  if (policy_ == SchedulerPolicy::kFifo) {
    queue_.push_back(std::move(task));
    return;
  }
  // Backfill: insert behind every task of >= priority. Keeping the queue
  // ordered at enqueue time is O(log n) search + O(n) insert for the one
  // new task, instead of an O(n log n) stable_sort on every scheduling
  // tick — and it guarantees FIFO fairness within a priority class is a
  // structural invariant rather than a property re-derived per tick.
  const int priority = task->description().priority;
  const auto it = std::upper_bound(
      queue_.begin(), queue_.end(), priority,
      [](int p, const TaskPtr& t) { return p > t->description().priority; });
  queue_.insert(it, std::move(task));
}

bool Scheduler::remove(const TaskPtr& task) {
  const auto it = std::find(queue_.begin(), queue_.end(), task);
  if (it == queue_.end()) return false;
  uncount(task);
  queue_.erase(it);
  return true;
}

std::deque<TaskPtr> Scheduler::drain() {
  std::deque<TaskPtr> out;
  out.swap(queue_);
  shapes_.clear();
  return out;
}

std::size_t Scheduler::try_schedule() {
  std::size_t started = 0;
  if (policy_ == SchedulerPolicy::kFifo) {
    while (!queue_.empty()) {
      auto alloc = pool_.allocate(queue_.front()->description().resources);
      if (!alloc) break;  // strict order: head blocks the rest
      TaskPtr task = std::move(queue_.front());
      queue_.pop_front();
      uncount(task);
      place_(std::move(task), std::move(*alloc));
      ++started;
    }
    return started;
  }

  // Backfill: the queue is already priority-ordered (see enqueue); place
  // everything that fits right now, in order. Nothing is released during
  // the pass, so a shape that failed once fails for the rest of it (see
  // the header): skip its tasks, and stop when every queued shape failed.
  for (Shape& shape : shapes_) shape.failed = false;
  std::size_t failed = 0;
  for (auto it = queue_.begin();
       it != queue_.end() && failed < shapes_.size();) {
    Shape& shape = shape_of(*it);
    if (shape.failed) {
      ++it;
      continue;
    }
    auto alloc = pool_.allocate((*it)->description().resources);
    if (!alloc) {
      shape.failed = true;
      ++failed;
      ++it;
      continue;
    }
    TaskPtr task = std::move(*it);
    it = queue_.erase(it);
    uncount(task);
    place_(std::move(task), std::move(*alloc));
    ++started;
  }
  return started;
}

}  // namespace impress::rp

#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace impress::rp {
namespace {

struct Fixture {
  hpc::ResourcePool pool{hpc::amarel_node()};
  std::vector<std::pair<TaskPtr, hpc::Allocation>> placed;

  Scheduler make(SchedulerPolicy policy) {
    return Scheduler(policy, pool, [this](TaskPtr t, hpc::Allocation a) {
      placed.emplace_back(std::move(t), std::move(a));
    });
  }

  static TaskPtr task(const std::string& name, std::uint32_t cores,
                      std::uint32_t gpus = 0, int priority = 0) {
    auto td = make_simple_task(name, cores, gpus, 1.0);
    td.priority = priority;
    return std::make_shared<Task>("task." + name, std::move(td));
  }
};

TEST(SchedulerPolicyNames, Strings) {
  EXPECT_EQ(to_string(SchedulerPolicy::kFifo), "FIFO");
  EXPECT_EQ(to_string(SchedulerPolicy::kBackfill), "BACKFILL");
}

TEST(Scheduler, PlacesWhatFits) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  s.enqueue(Fixture::task("a", 10));
  s.enqueue(Fixture::task("b", 10));
  EXPECT_EQ(s.try_schedule(), 2u);
  EXPECT_EQ(f.placed.size(), 2u);
  EXPECT_EQ(s.queue_length(), 0u);
}

TEST(Scheduler, FifoHeadBlocksQueue) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  // Occupy 22 cores so the 10-core head cannot start.
  auto big = f.pool.allocate({.cores = 22});
  ASSERT_TRUE(big);
  s.enqueue(Fixture::task("head", 10));
  s.enqueue(Fixture::task("small", 2));  // would fit, but FIFO blocks it
  EXPECT_EQ(s.try_schedule(), 0u);
  EXPECT_EQ(s.queue_length(), 2u);
  f.pool.release(*big);
  EXPECT_EQ(s.try_schedule(), 2u);
}

TEST(Scheduler, BackfillSkipsBlockedHead) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  auto big = f.pool.allocate({.cores = 22});
  ASSERT_TRUE(big);
  s.enqueue(Fixture::task("head", 10));
  s.enqueue(Fixture::task("small", 2));
  EXPECT_EQ(s.try_schedule(), 1u);
  ASSERT_EQ(f.placed.size(), 1u);
  EXPECT_EQ(f.placed[0].first->description().name, "small");
  EXPECT_EQ(s.queue_length(), 1u);
  f.pool.release(*big);
}

TEST(Scheduler, BackfillHonorsPriority) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("low", 2, 0, 0));
  s.enqueue(Fixture::task("high", 2, 0, 5));
  EXPECT_EQ(s.try_schedule(), 2u);
  ASSERT_EQ(f.placed.size(), 2u);
  EXPECT_EQ(f.placed[0].first->description().name, "high");
}

TEST(Scheduler, BackfillStableWithinPriority) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("first", 2));
  s.enqueue(Fixture::task("second", 2));
  EXPECT_EQ(s.try_schedule(), 2u);
  ASSERT_EQ(f.placed.size(), 2u);
  EXPECT_EQ(f.placed[0].first->description().name, "first");
}

TEST(Scheduler, RemoveDequeuesTask) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  auto t = Fixture::task("a", 2);
  s.enqueue(t);
  EXPECT_TRUE(s.remove(t));
  EXPECT_FALSE(s.remove(t));
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.try_schedule(), 0u);
}

TEST(Scheduler, GpuContentionLimitsPlacement) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  for (int i = 0; i < 6; ++i)
    s.enqueue(Fixture::task("g" + std::to_string(i), 1, 1));
  EXPECT_EQ(s.try_schedule(), 4u);  // only 4 GPUs
  EXPECT_EQ(s.queue_length(), 2u);
}

TEST(Scheduler, AllocationsMatchRequests) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("a", 5, 2));
  EXPECT_EQ(s.try_schedule(), 1u);
  ASSERT_EQ(f.placed.size(), 1u);
  EXPECT_EQ(f.placed[0].second.cores.size(), 5u);
  EXPECT_EQ(f.placed[0].second.gpus.size(), 2u);
}

// Regression (per-tick sort): under kBackfill the queue is kept in
// priority order at enqueue, so try_schedule never sorts. Interleaved
// enqueues must still come out highest-priority first, submission order
// preserved within a priority class.
TEST(Scheduler, EnqueueMaintainsPriorityOrder) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  s.enqueue(Fixture::task("p0-a", 2, 0, 0));
  s.enqueue(Fixture::task("p5-a", 2, 0, 5));
  s.enqueue(Fixture::task("p3", 2, 0, 3));
  s.enqueue(Fixture::task("p5-b", 2, 0, 5));
  s.enqueue(Fixture::task("p0-b", 2, 0, 0));
  const auto drained = s.drain();
  ASSERT_EQ(drained.size(), 5u);
  EXPECT_EQ(drained[0]->description().name, "p5-a");
  EXPECT_EQ(drained[1]->description().name, "p5-b");
  EXPECT_EQ(drained[2]->description().name, "p3");
  EXPECT_EQ(drained[3]->description().name, "p0-a");
  EXPECT_EQ(drained[4]->description().name, "p0-b");
}

TEST(Scheduler, PriorityOrderSurvivesPartialScheduling) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kBackfill);
  // Fill the node so nothing can start, then enqueue out of order.
  auto big = f.pool.allocate({.cores = 28});
  ASSERT_TRUE(big);
  s.enqueue(Fixture::task("low", 2, 0, 1));
  s.enqueue(Fixture::task("high", 2, 0, 9));
  EXPECT_EQ(s.try_schedule(), 0u);
  s.enqueue(Fixture::task("mid", 2, 0, 4));
  f.pool.release(*big);
  EXPECT_EQ(s.try_schedule(), 3u);
  ASSERT_EQ(f.placed.size(), 3u);
  EXPECT_EQ(f.placed[0].first->description().name, "high");
  EXPECT_EQ(f.placed[1].first->description().name, "mid");
  EXPECT_EQ(f.placed[2].first->description().name, "low");
}

TEST(Scheduler, DrainEmptiesQueueInOrder) {
  Fixture f;
  auto s = f.make(SchedulerPolicy::kFifo);
  s.enqueue(Fixture::task("a", 2));
  s.enqueue(Fixture::task("b", 2));
  s.enqueue(Fixture::task("c", 2));
  const auto drained = s.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0]->description().name, "a");
  EXPECT_EQ(drained[2]->description().name, "c");
  EXPECT_EQ(s.queue_length(), 0u);
  EXPECT_EQ(s.try_schedule(), 0u);
}

class SchedulerPolicySweep : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(SchedulerPolicySweep, EventuallyDrainsQueue) {
  Fixture f;
  auto s = f.make(GetParam());
  for (int i = 0; i < 20; ++i)
    s.enqueue(Fixture::task("t" + std::to_string(i), 7, i % 2));
  // Repeatedly schedule and free everything placed, as completions would.
  int rounds = 0;
  while (s.queue_length() > 0 && rounds < 100) {
    (void)s.try_schedule();
    for (auto& [t, a] : f.placed) f.pool.release(a);
    f.placed.clear();
    ++rounds;
  }
  EXPECT_EQ(s.queue_length(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerPolicySweep,
                         ::testing::Values(SchedulerPolicy::kFifo,
                                           SchedulerPolicy::kBackfill));

// The backfill pass as it was before shape memoization: probe every queued
// task on every pass. Reference model for the equivalence fuzz below.
class FullWalkBackfill {
 public:
  explicit FullWalkBackfill(hpc::ResourcePool& pool) : pool_(pool) {}

  void enqueue(TaskPtr task) {
    const int priority = task->description().priority;
    const auto it = std::upper_bound(
        queue_.begin(), queue_.end(), priority,
        [](int p, const TaskPtr& t) { return p > t->description().priority; });
    queue_.insert(it, std::move(task));
  }
  bool remove(const TaskPtr& task) {
    const auto it = std::find(queue_.begin(), queue_.end(), task);
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }
  std::deque<TaskPtr> drain() {
    std::deque<TaskPtr> out;
    out.swap(queue_);
    return out;
  }
  template <typename Place>
  std::size_t try_schedule(Place&& place) {
    std::size_t started = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      auto alloc = pool_.allocate((*it)->description().resources);
      if (!alloc) {
        ++it;
        continue;
      }
      TaskPtr task = std::move(*it);
      it = queue_.erase(it);
      place(std::move(task), std::move(*alloc));
      ++started;
    }
    return started;
  }
  [[nodiscard]] const std::deque<TaskPtr>& queued() const { return queue_; }

 private:
  hpc::ResourcePool& pool_;
  std::deque<TaskPtr> queue_;
};

std::vector<hpc::NodeSpec> fuzz_nodes() {
  hpc::NodeSpec small{.name = "small",
                      .cores = 12,
                      .gpus = 2,
                      .mem_gb = 48.0,
                      .gpu_mem_gb = 16.0};
  return {hpc::amarel_node(), small};
}

// IM-RP-like shapes (full fold, feature-reuse fold, MPNN, refine) plus MPS
// slices and a CPU-only sliver, so memory, device memory and fractional
// GPUs all bind at some point.
std::vector<hpc::ResourceRequest> fuzz_shapes() {
  return {
      {.cores = 8, .gpus = 1, .mem_gb = 48.0, .gpu_mem_gb = 10.0},
      {.cores = 2, .gpus = 1, .mem_gb = 16.0, .gpu_mem_gb = 10.0},
      {.cores = 1, .gpus = 1, .mem_gb = 8.0, .gpu_mem_gb = 4.0},
      {.cores = 4, .gpus = 0, .mem_gb = 4.0},
      {.cores = 1,
       .gpus = 3,
       .mem_gb = 2.0,
       .gpu_mem_gb = 3.0,
       .gpu_slice_milli = 250},
      {.cores = 3, .gpus = 0, .mem_gb = 0.0},
  };
}

void expect_same_allocation(const hpc::Allocation& a,
                            const hpc::Allocation& b) {
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.gpus, b.gpus);
  EXPECT_EQ(a.mem_gb, b.mem_gb);
  EXPECT_EQ(a.gpu_slice_milli, b.gpu_slice_milli);
  EXPECT_EQ(a.gpu_mem_gb, b.gpu_mem_gb);
}

class BackfillEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// Shape memoization must not change a single decision: the same seeded
// interleaving of enqueue / remove / try_schedule / release / drain on the
// memoized Scheduler and on the full-walk reference, each with its own
// pool, yields the same placements, allocations and queue order after
// every step.
TEST_P(BackfillEquivalence, MatchesFullWalkReference) {
  common::Rng rng(GetParam());
  hpc::ResourcePool pool(fuzz_nodes());
  hpc::ResourcePool ref_pool(fuzz_nodes());
  std::vector<std::pair<TaskPtr, hpc::Allocation>> placed;
  std::vector<std::pair<TaskPtr, hpc::Allocation>> ref_placed;
  Scheduler sched(SchedulerPolicy::kBackfill, pool,
                  [&](TaskPtr t, hpc::Allocation a) {
                    placed.emplace_back(std::move(t), std::move(a));
                  });
  FullWalkBackfill ref(ref_pool);
  const auto shapes = fuzz_shapes();
  std::vector<TaskPtr> made;  // every task ever enqueued (remove targets)
  std::size_t compared = 0;   // entries of `placed` already checked
  std::size_t placements = 0;

  for (int step = 0; step < 3000; ++step) {
    const std::uint32_t op = rng.below(100);
    if (op < 45) {
      hpc::ResourceRequest shape = shapes[rng.below(
          static_cast<std::uint32_t>(shapes.size()))];
      auto td = make_simple_task("t" + std::to_string(made.size()),
                                 shape.cores, shape.gpus, 1.0);
      td.resources = shape;
      td.priority = rng.range(0, 2);
      auto task = std::make_shared<Task>("task." + td.name, std::move(td));
      made.push_back(task);
      sched.enqueue(task);
      ref.enqueue(task);
    } else if (op < 55 && !made.empty()) {
      const TaskPtr& victim =
          made[rng.below(static_cast<std::uint32_t>(made.size()))];
      EXPECT_EQ(sched.remove(victim), ref.remove(victim));
    } else if (op < 80) {
      const std::size_t n = sched.try_schedule();
      const std::size_t ref_n = ref.try_schedule(
          [&](TaskPtr t, hpc::Allocation a) {
            ref_placed.emplace_back(std::move(t), std::move(a));
          });
      EXPECT_EQ(n, ref_n);
      placements += n;
    } else if (op < 98 && !placed.empty()) {
      // Complete one running task on both sides.
      const std::size_t i =
          rng.below(static_cast<std::uint32_t>(placed.size()));
      pool.release(placed[i].second);
      ref_pool.release(ref_placed[i].second);
      placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(i));
      ref_placed.erase(ref_placed.begin() + static_cast<std::ptrdiff_t>(i));
      --compared;
    } else if (op >= 98) {
      const auto drained = sched.drain();
      const auto ref_drained = ref.drain();
      ASSERT_EQ(drained.size(), ref_drained.size());
      for (std::size_t i = 0; i < drained.size(); ++i)
        EXPECT_EQ(drained[i], ref_drained[i]);
    }

    ASSERT_EQ(placed.size(), ref_placed.size()) << "step " << step;
    for (; compared < placed.size(); ++compared) {
      EXPECT_EQ(placed[compared].first, ref_placed[compared].first);
      expect_same_allocation(placed[compared].second,
                             ref_placed[compared].second);
    }
    ASSERT_EQ(sched.queued().size(), ref.queued().size()) << "step " << step;
    for (std::size_t i = 0; i < sched.queued().size(); ++i)
      ASSERT_EQ(sched.queued()[i], ref.queued()[i]) << "step " << step;
    ASSERT_EQ(pool.free_cores(), ref_pool.free_cores());
    ASSERT_EQ(pool.free_gpu_milli(), ref_pool.free_gpu_milli());
  }
  EXPECT_GT(placements, 300u);  // the workload really placed and released
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackfillEquivalence,
                         ::testing::Values(1u, 42u, 1234u));

}  // namespace
}  // namespace impress::rp

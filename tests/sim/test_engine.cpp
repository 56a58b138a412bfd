#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <vector>

namespace impress::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, FiresEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, EqualTimestampsFireInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleAfterAddsDelay) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_after(5.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_at(3.0, [&] { fired_at = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(fired_at, 10.0);
}

TEST(Engine, NegativeDelayClampsToZero) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(7.0, [&] {
    e.schedule_after(-2.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 7.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const auto id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.fired_events(), 0u);
}

TEST(Engine, CancelTwiceFails) {
  Engine e;
  const auto id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelAfterFireFails) {
  Engine e;
  const auto id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelledEventDoesNotAdvanceClock) {
  Engine e;
  const auto id = e.schedule_at(100.0, [] {});
  e.schedule_at(1.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.now(), 1.0);
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunReturnsEventCount) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  EXPECT_EQ(e.run(), 5u);
  EXPECT_EQ(e.fired_events(), 5u);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<double> times;
  for (int i = 1; i <= 10; ++i)
    e.schedule_at(i, [&times, &e] { times.push_back(e.now()); });
  const auto fired = e.run_until(5.0);
  EXPECT_EQ(fired, 5u);
  EXPECT_EQ(e.now(), 5.0);
  EXPECT_EQ(e.pending_events(), 5u);
  // Continue to completion.
  e.run();
  EXPECT_EQ(times.size(), 10u);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(42.0);
  EXPECT_EQ(e.now(), 42.0);
}

TEST(Engine, RunUntilInclusiveOfBoundaryEvents) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  e.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] {
    ++fired;
    e.stop();
  });
  e.schedule_at(2.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending_events(), 1u);
  // A fresh run resumes.
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsCanScheduleChains) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_after(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99.0);
}

TEST(Engine, PendingEventsAccounting) {
  Engine e;
  const auto a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_TRUE(e.empty());
}

// Property: any interleaving of schedules fires in nondecreasing time.
class EngineOrderSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineOrderSweep, MonotoneClock) {
  Engine e;
  unsigned state = GetParam() * 2654435761u + 12345u;
  std::vector<double> fire_times;
  for (int i = 0; i < 200; ++i) {
    state = state * 1664525u + 1013904223u;
    const double t = static_cast<double>(state % 1000) / 10.0;
    e.schedule_at(t, [&fire_times, &e] { fire_times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(fire_times.size(), 200u);
  for (std::size_t i = 1; i < fire_times.size(); ++i)
    EXPECT_GE(fire_times[i], fire_times[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(Interleavings, EngineOrderSweep,
                         ::testing::Range(1u, 7u));

TEST(Engine, FiresInTimeThenSeqOrder) {
  // Deliberately adversarial times: out of order, duplicates, long gaps
  // and sub-second clusters.
  const double times[] = {5.0, 1.0, 5.0, 0.0,  3.25, 1.0,   1e6,
                          1.0, 0.5, 3.25, 1e-9, 0.0,  1e6,   7.5,
                          2.0, 2.0, 2.0,  42.0, 0.25, 1e6 + 1e-6};
  Engine e;
  std::vector<std::size_t> fired;
  for (std::size_t i = 0; i < std::size(times); ++i)
    e.schedule_at(times[i], [&fired, &e, &times, i] {
      EXPECT_EQ(e.now(), times[i]);
      fired.push_back(i);
    });
  e.run();
  // Expected: by time, ties in insertion (index) order.
  std::vector<std::size_t> expected(std::size(times));
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::stable_sort(expected.begin(), expected.end(),
                   [&times](std::size_t a, std::size_t b) {
                     return times[a] < times[b];
                   });
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, EqualTimestampFifoOrdering) {
  Engine e;
  std::vector<int> fired;
  for (int i = 0; i < 32; ++i)
    e.schedule_at(10.0, [i, &fired] { fired.push_back(i); });
  // Interleave an earlier and a later event around the tie pile-up.
  e.schedule_at(5.0, [&fired] { fired.push_back(-1); });
  e.schedule_at(20.0, [&fired] { fired.push_back(-2); });
  e.run();
  ASSERT_EQ(fired.size(), 34u);
  EXPECT_EQ(fired.front(), -1);
  EXPECT_EQ(fired.back(), -2);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i) + 1], i);
}

TEST(Engine, CancelDuringRunSkipsSameBatchAndFutureEvents) {
  Engine e;
  std::vector<std::string> fired;
  // Three events share t=1.0; the first cancels the third (same batch)
  // and a future event at t=2.0.
  EventId same_batch = 0;
  EventId future = 0;
  e.schedule_at(1.0, [&] {
    fired.push_back("a");
    EXPECT_TRUE(e.cancel(same_batch));
    EXPECT_TRUE(e.cancel(future));
  });
  e.schedule_at(1.0, [&] { fired.push_back("b"); });
  same_batch = e.schedule_at(1.0, [&] { fired.push_back("CANCELLED"); });
  future = e.schedule_at(2.0, [&] { fired.push_back("CANCELLED"); });
  e.schedule_at(3.0, [&] { fired.push_back("c"); });
  e.run();
  EXPECT_EQ(fired, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, StaleHandleNeverCancelsARecycledSlot) {
  Engine e;
  const EventId old_id = e.schedule_at(1.0, [] {});
  ASSERT_TRUE(e.cancel(old_id));
  // The pool slot is recycled for the next event; the stale handle's
  // generation no longer matches, so it must not cancel the newcomer.
  bool fired = false;
  const EventId new_id = e.schedule_at(1.0, [&fired] { fired = true; });
  EXPECT_FALSE(e.cancel(old_id));
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(e.cancel(new_id));
}

// Tombstone-leak regression: 1e6 schedule/cancel cycles around one
// long-lived event must not grow the queue — compaction sweeps the
// tombstones lazy cancel leaves in the heap.
TEST(Engine, CancelChurnBoundedMemory) {
  Engine e;
  bool fired = false;
  e.schedule_at(1e9, [&fired] { fired = true; });
  std::size_t high_water = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id =
        e.schedule_at(static_cast<double>(i % 1000), [] { FAIL(); });
    ASSERT_TRUE(e.cancel(id));
    high_water = std::max(high_water, e.scheduler_entries());
  }
  EXPECT_EQ(e.pending_events(), 1u);
  // Compaction triggers at entries > 2x live (live == 1 here) once past
  // the 64-entry floor, so the queue never exceeds a small constant.
  EXPECT_LE(high_water, 256u);
  EXPECT_LE(e.scheduler_entries(), 256u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(fired);
}

TEST(Engine, WarpToRefusesLiveEventsAndBackwardClock) {
  Engine e;
  const EventId pending = e.schedule_at(5.0, [] {});
  EXPECT_FALSE(e.warp_to(100.0));  // live event pending
  EXPECT_EQ(e.now(), 0.0);
  ASSERT_TRUE(e.cancel(pending));
  ASSERT_TRUE(e.warp_to(100.0));
  EXPECT_EQ(e.now(), 100.0);
  EXPECT_FALSE(e.warp_to(50.0));  // backwards
  EXPECT_EQ(e.now(), 100.0);
  EXPECT_TRUE(e.warp_to(100.0));  // warp-in-place is a legal no-op
}

TEST(Engine, WarpToClearsLeftoverTombstones) {
  Engine e;
  for (int i = 0; i < 100; ++i) {
    const EventId id = e.schedule_at(static_cast<double>(i), [] {});
    ASSERT_TRUE(e.cancel(id));
  }
  // Only tombstones remain; the warp must succeed and leave a pristine
  // queue behind.
  ASSERT_TRUE(e.warp_to(1000.0));
  EXPECT_EQ(e.scheduler_entries(), 0u);
  bool fired = false;
  e.schedule_after(1.0, [&fired, &e] {
    fired = true;
    EXPECT_EQ(e.now(), 1001.0);
  });
  e.run();
  EXPECT_TRUE(fired);
}

// ---------------------------------------------------------------------------
// Reference-model oracle: the engine's heap + batching + lazy cancel must
// fire exactly like the plainest queue that meets the (time, seq)
// contract.

/// Linear min-scan on (time, seq) with eager cancel — no heap, no
/// batches, no tombstones. Mirrors the Engine calls the workload uses.
class ReferenceQueue {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  EventId schedule_at(SimTime t, std::function<void()> fn) {
    const EventId id = next_id_++;
    pending_.push_back({std::max(t, now_), next_seq_++, id, std::move(fn)});
    return id;
  }

  EventId schedule_after(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
  }

  bool cancel(EventId id) {
    const auto it = std::find_if(pending_.begin(), pending_.end(),
                                 [id](const Entry& e) { return e.id == id; });
    if (it == pending_.end()) return false;
    pending_.erase(it);
    return true;
  }

  std::size_t run_until(SimTime t_end) {
    std::size_t n = 0;
    for (;;) {
      const auto next = std::min_element(
          pending_.begin(), pending_.end(),
          [](const Entry& a, const Entry& b) {
            return a.time != b.time ? a.time < b.time : a.seq < b.seq;
          });
      if (next == pending_.end() || next->time > t_end) break;
      Entry entry = std::move(*next);
      pending_.erase(next);
      now_ = entry.time;
      entry.fn();
      ++n;
    }
    now_ = std::max(now_, t_end);
    return n;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    std::function<void()> fn;
  };
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::vector<Entry> pending_;
};

struct FiringRecord {
  double time;
  int tag;
  bool operator==(const FiringRecord&) const = default;
};

struct WorkloadTrace {
  std::vector<FiringRecord> fired;
  std::vector<bool> cancelled;  ///< outcome of every cancel call, in order
  bool operator==(const WorkloadTrace&) const = default;
};

/// One seeded, cancel-heavy, self-scheduling workload. Each firing may
/// schedule follow-ups (coarse delays, including zero => timestamp
/// collisions and same-time inserts during a batch) and may cancel an
/// earlier event that is pending or already fired. The rng only advances
/// inside callbacks, so the trace is a function of firing order alone —
/// the contract under test.
template <typename Queue>
WorkloadTrace run_seeded_workload(std::uint64_t seed) {
  Queue q;
  std::mt19937_64 rng(seed);
  WorkloadTrace trace;
  std::vector<EventId> cancellable;
  int next_tag = 0;

  std::function<void(int)> fire = [&](int tag) {
    trace.fired.push_back({q.now(), tag});
    const auto children = rng() % 3;
    for (std::uint64_t c = 0; c < children; ++c) {
      const double delay = static_cast<double>(rng() % 8) * 0.5;
      const int child_tag = next_tag++;
      cancellable.push_back(
          q.schedule_after(delay, [&fire, child_tag] { fire(child_tag); }));
    }
    if (!cancellable.empty() && rng() % 4 == 0) {
      const std::size_t pick = rng() % cancellable.size();
      trace.cancelled.push_back(q.cancel(cancellable[pick]));
      cancellable.erase(cancellable.begin() +
                        static_cast<std::ptrdiff_t>(pick));
    }
  };

  for (int i = 0; i < 40; ++i) {
    const int tag = next_tag++;
    q.schedule_at(static_cast<double>(i % 5), [&fire, tag] { fire(tag); });
  }
  q.run_until(50.0);  // self-scheduling workload: cap the horizon
  trace.fired.push_back({q.now(), -1});
  return trace;
}

TEST(EngineReference, SeededWorkloadFiresLikeReferenceQueue) {
  for (const std::uint64_t seed : {1u, 42u, 1234u}) {
    const auto engine = run_seeded_workload<Engine>(seed);
    const auto reference = run_seeded_workload<ReferenceQueue>(seed);
    ASSERT_GT(engine.fired.size(), 40u) << "seed " << seed;
    EXPECT_EQ(engine, reference) << "seed " << seed;
  }
}

}  // namespace
}  // namespace impress::sim

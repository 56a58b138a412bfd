#include "hpc/analytics.hpp"

#include <gtest/gtest.h>

namespace impress::hpc {
namespace {

void add_task(Profiler& p, const std::string& uid, double schedule,
              double setup, double start, double stop) {
  p.record(schedule, uid, events::kSchedule);
  p.record(setup, uid, events::kExecSetupStart);
  p.record(start, uid, events::kExecStart);
  p.record(stop, uid, events::kExecStop);
}

TEST(Analytics, TaskTimingDecomposition) {
  Profiler p;
  add_task(p, "task.0", 0.0, 10.0, 15.0, 115.0);
  const auto timings = task_timings(p.events());
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_DOUBLE_EQ(timings[0].wait, 10.0);
  EXPECT_DOUBLE_EQ(timings[0].setup, 5.0);
  EXPECT_DOUBLE_EQ(timings[0].run, 100.0);
}

TEST(Analytics, IncompleteTasksSkipped) {
  Profiler p;
  add_task(p, "task.0", 0.0, 1.0, 2.0, 3.0);
  p.record(0.0, "task.queued", events::kSchedule);  // never ran
  p.record(0.0, "task.running", events::kExecStart);  // no stop
  EXPECT_EQ(task_timings(p.events()).size(), 1u);
}

TEST(Analytics, SummaryAggregates) {
  Profiler p;
  add_task(p, "task.0", 0.0, 10.0, 12.0, 112.0);   // wait 10 setup 2 run 100
  add_task(p, "task.1", 0.0, 30.0, 34.0, 234.0);   // wait 30 setup 4 run 200
  const auto s = summarize_timings(p.events());
  EXPECT_EQ(s.tasks, 2u);
  EXPECT_DOUBLE_EQ(s.mean_wait, 20.0);
  EXPECT_DOUBLE_EQ(s.mean_setup, 3.0);
  EXPECT_DOUBLE_EQ(s.mean_run, 150.0);
  EXPECT_NEAR(s.overhead_fraction, 23.0 / 173.0, 1e-12);
  EXPECT_GE(s.p95_wait, 20.0);
}

TEST(Analytics, EmptyProfilerSummary) {
  Profiler p;
  const auto s = summarize_timings(p.events());
  EXPECT_EQ(s.tasks, 0u);
  EXPECT_EQ(s.overhead_fraction, 0.0);
}

TEST(Analytics, ConcurrencySeriesCountsRunningTasks) {
  Profiler p;
  add_task(p, "task.0", 0.0, 0.0, 0.0, 100.0);
  add_task(p, "task.1", 0.0, 0.0, 50.0, 100.0);
  const auto series = concurrency_series(p.events(), 4, 100.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[0], 1.0, 1e-9);  // 0-25: only task.0
  EXPECT_NEAR(series[1], 1.0, 1e-9);  // 25-50
  EXPECT_NEAR(series[2], 2.0, 1e-9);  // 50-75: both
  EXPECT_NEAR(series[3], 2.0, 1e-9);
}

TEST(Analytics, ConcurrencyHandlesRunningAtEnd) {
  Profiler p;
  p.record(0.0, "task.0", events::kSchedule);
  p.record(0.0, "task.0", events::kExecSetupStart);
  p.record(0.0, "task.0", events::kExecStart);  // never stops
  const auto series = concurrency_series(p.events(), 2, 10.0);
  EXPECT_NEAR(series[0], 1.0, 1e-9);
  EXPECT_NEAR(series[1], 1.0, 1e-9);
}

TEST(Analytics, PeakConcurrency) {
  Profiler p;
  add_task(p, "task.0", 0, 0, 0.0, 10.0);
  add_task(p, "task.1", 0, 0, 5.0, 15.0);
  add_task(p, "task.2", 0, 0, 8.0, 9.0);
  add_task(p, "task.3", 0, 0, 20.0, 30.0);
  EXPECT_EQ(peak_concurrency(p.events()), 3u);
}

TEST(Analytics, PeakConcurrencyBackToBackIsOne) {
  Profiler p;
  add_task(p, "task.0", 0, 0, 0.0, 10.0);
  add_task(p, "task.1", 0, 0, 10.0, 20.0);  // starts exactly as 0 stops
  EXPECT_EQ(peak_concurrency(p.events()), 1u);
}

TEST(Analytics, EmptyInputs) {
  Profiler p;
  EXPECT_EQ(peak_concurrency(p.events()), 0u);
  EXPECT_TRUE(concurrency_series(p.events(), 0).empty());
  const auto series = concurrency_series(p.events(), 3);
  for (double v : series) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace impress::hpc

// SeqLog: the per-thread-buffered, globally sequenced log under
// hpc::Profiler and obs::Tracer. Eviction from the thread-local cache and
// clear() racing writers are covered through those public types by the
// StressPerf and StressObs suites.

#include "common/seq_log.hpp"

#include <gtest/gtest.h>

#include <new>
#include <thread>
#include <utility>
#include <vector>

namespace impress::common {
namespace {

TEST(SeqLog, ConcurrentAppendsMergeInSeqOrder) {
  SeqLog<std::pair<int, int>> log;  // (thread, index within thread)
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) log.append({t, i});
    });
  for (auto& thread : threads) thread.join();

  const auto entries = log.snapshot();
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(log.size(), entries.size());
  std::vector<int> next(kThreads, 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(entries[i - 1].seq, entries[i].seq);
    }
    const auto [t, index] = entries[i].value;
    ASSERT_EQ(index, next[t]++) << "thread " << t;
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
  EXPECT_EQ(log.count_if([](const auto& v) { return v.first == 2; }),
            static_cast<std::size_t>(kPerThread));
}

TEST(SeqLog, LogAtADeadLogsAddressStartsEmpty) {
  alignas(SeqLog<int>) unsigned char storage[sizeof(SeqLog<int>)];
  auto* dead = new (storage) SeqLog<int>;
  for (int i = 0; i < 3; ++i) dead->append(i);
  dead->~SeqLog();

  // Same address, and this thread still caches the dead log's buffer.
  auto* log = new (storage) SeqLog<int>;
  EXPECT_EQ(log->size(), 0u);
  EXPECT_TRUE(log->snapshot().empty());
  log->append(42);
  const auto entries = log->snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].value, 42);
  log->~SeqLog();
}

TEST(SeqLog, PreloadedValuesSortBeforeLiveOnes) {
  // A checkpoint restore appends the saved values before any live writer.
  SeqLog<int> log;
  for (int v : {10, 11, 12}) log.append(v);
  std::thread([&log] {
    for (int i = 0; i < 3; ++i) log.append(20 + i);
  }).join();
  log.append(30);

  const auto entries = log.snapshot();
  ASSERT_EQ(entries.size(), 7u);
  const std::vector<int> expected{10, 11, 12, 20, 21, 22, 30};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, i + 1);  // a fresh log numbers from 1
    EXPECT_EQ(entries[i].value, expected[i]);
  }
}

TEST(SeqLog, SetNextSeqContinuesNumbering) {
  SeqLog<int> log;
  EXPECT_EQ(log.next_seq(), 1u);
  log.set_next_seq(100);
  EXPECT_EQ(log.append(1), 100u);
  EXPECT_EQ(log.append(2), 101u);
  EXPECT_EQ(log.next_seq(), 102u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.append(3), 102u);  // clear() keeps the numbering
}

}  // namespace
}  // namespace impress::common

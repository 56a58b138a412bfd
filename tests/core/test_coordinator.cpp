// Coordinator behaviour through the simulated runtime: channel-driven
// dispatch, sequential (CONT-V) gating, sub-pipeline decision-making,
// and bookkeeping.

#include "core/coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/calibration.hpp"
#include "protein/datasets.hpp"
#include "runtime/session.hpp"

namespace impress::core {
namespace {

struct Fixture {
  std::vector<protein::DesignTarget> targets;
  rp::SessionConfig session_config;

  Fixture() {
    targets.push_back(
        protein::make_target("CO-A", 84, protein::alpha_synuclein().tail(10)));
    targets.push_back(
        protein::make_target("CO-B", 88, protein::alpha_synuclein().tail(10)));
    session_config.seed = 42;
  }

  CoordinatorConfig coordinator_config(bool sequential = false) {
    CoordinatorConfig cfg;
    cfg.sequential = sequential;
    cfg.mpnn_durations = calibration::mpnn_durations();
    cfg.fold_durations = calibration::fold_durations();
    return cfg;
  }

  std::unique_ptr<Pipeline> pipeline(rp::Session& session,
                                     const protein::DesignTarget& t,
                                     ProtocolConfig protocol) {
    return std::make_unique<Pipeline>(
        t.name, t, t.start_complex(), protocol,
        std::make_shared<MpnnGenerator>(calibration::sampler_config()),
        fold::AlphaFold{}, session.fork_rng("pipeline." + t.name));
  }
};

TEST(Coordinator, RunsSinglePipelineToCompletion) {
  Fixture f;
  rp::Session session(f.session_config);
  session.submit_pilot(calibration::amarel_pilot());
  Coordinator coord(session, f.coordinator_config());
  auto protocol = calibration::im_rp_protocol();
  protocol.spawn_subpipelines = false;
  coord.add_pipeline(f.pipeline(session, f.targets[0], protocol));
  coord.run();
  const auto results = coord.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].history.empty());
  EXPECT_EQ(coord.pipelines_submitted(), 1u);
  EXPECT_EQ(coord.failed_tasks(), 0u);
  // Each accepted cycle needed one generator call; fold calls >= cycles.
  EXPECT_GE(coord.fold_tasks(), results[0].history.size());
  EXPECT_EQ(coord.generator_tasks(), results[0].history.size() +
                                         (results[0].terminated_early ? 1 : 0));
}

TEST(Coordinator, RunTwiceThrows) {
  Fixture f;
  rp::Session session(f.session_config);
  session.submit_pilot(calibration::amarel_pilot());
  Coordinator coord(session, f.coordinator_config());
  auto protocol = calibration::cont_v_protocol();
  coord.add_pipeline(f.pipeline(session, f.targets[0], protocol));
  coord.run();
  EXPECT_THROW(coord.run(), std::logic_error);
}

TEST(Coordinator, SequentialModeNeverOverlapsTasks) {
  Fixture f;
  rp::Session session(f.session_config);
  auto pilot = session.submit_pilot(
      calibration::amarel_pilot(rp::SchedulerPolicy::kFifo));
  Coordinator coord(session, f.coordinator_config(/*sequential=*/true));
  for (const auto& t : f.targets)
    coord.add_pipeline(f.pipeline(session, t, calibration::cont_v_protocol()));
  coord.run();
  // No two recorded usage intervals may overlap.
  auto intervals = pilot->recorder().intervals();
  std::sort(intervals.begin(), intervals.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  for (std::size_t i = 1; i < intervals.size(); ++i)
    EXPECT_GE(intervals[i].start, intervals[i - 1].end - 1e-9)
        << "tasks overlapped in sequential mode";
}

TEST(Coordinator, ConcurrentModeOverlapsTasks) {
  Fixture f;
  rp::Session session(f.session_config);
  auto pilot = session.submit_pilot(calibration::amarel_pilot());
  Coordinator coord(session, f.coordinator_config(/*sequential=*/false));
  auto protocol = calibration::im_rp_protocol();
  protocol.spawn_subpipelines = false;
  for (const auto& t : f.targets)
    coord.add_pipeline(f.pipeline(session, t, protocol));
  coord.run();
  auto intervals = pilot->recorder().intervals();
  bool overlap = false;
  for (std::size_t i = 0; i < intervals.size() && !overlap; ++i)
    for (std::size_t j = i + 1; j < intervals.size() && !overlap; ++j)
      if (intervals[i].start < intervals[j].end &&
          intervals[j].start < intervals[i].end)
        overlap = true;
  EXPECT_TRUE(overlap) << "IM-RP pipelines should execute concurrently";
}

TEST(Coordinator, SubpipelinesSpawnWhenEnabled) {
  Fixture f;
  rp::Session session(f.session_config);
  session.submit_pilot(calibration::amarel_pilot());
  Coordinator coord(session, f.coordinator_config());
  auto protocol = calibration::im_rp_protocol();
  protocol.max_subpipelines_per_target = 2;
  for (const auto& t : f.targets)
    coord.add_pipeline(f.pipeline(session, t, protocol));
  coord.run();
  // Every spawned sub-pipeline appears in the results and respects caps.
  std::size_t subs = 0;
  for (const auto& r : coord.results())
    if (r.is_subpipeline) ++subs;
  EXPECT_EQ(subs, coord.subpipelines_spawned());
  EXPECT_LE(subs, f.targets.size() *
                      static_cast<std::size_t>(protocol.max_subpipelines_per_target));
}

TEST(Coordinator, NoSubpipelinesWhenDisabled) {
  Fixture f;
  rp::Session session(f.session_config);
  session.submit_pilot(calibration::amarel_pilot());
  Coordinator coord(session, f.coordinator_config());
  auto protocol = calibration::im_rp_protocol();
  protocol.spawn_subpipelines = false;
  for (const auto& t : f.targets)
    coord.add_pipeline(f.pipeline(session, t, protocol));
  coord.run();
  EXPECT_EQ(coord.subpipelines_spawned(), 0u);
  for (const auto& r : coord.results()) EXPECT_FALSE(r.is_subpipeline);
}

TEST(Coordinator, RetriesCountedAsFoldRetries) {
  Fixture f;
  rp::Session session(f.session_config);
  session.submit_pilot(calibration::amarel_pilot());
  Coordinator coord(session, f.coordinator_config());
  auto protocol = calibration::im_rp_protocol();
  protocol.spawn_subpipelines = false;
  for (const auto& t : f.targets)
    coord.add_pipeline(f.pipeline(session, t, protocol));
  coord.run();
  std::size_t accepted = 0;
  int retries = 0;
  std::size_t terminated = 0;
  for (const auto& r : coord.results()) {
    accepted += r.history.size();
    retries += r.total_retries;
    if (r.terminated_early) ++terminated;
  }
  // Every fold is an accepted iteration or a counted decline; the
  // coordinator resubmits every decline except the terminal one of a
  // pipeline that ran out of budget or candidates.
  EXPECT_EQ(coord.fold_tasks(), accepted + static_cast<std::size_t>(retries));
  EXPECT_EQ(coord.fold_retries() + terminated,
            static_cast<std::size_t>(retries));
}

TEST(Coordinator, ResultsCoverEveryTarget) {
  Fixture f;
  rp::Session session(f.session_config);
  session.submit_pilot(calibration::amarel_pilot());
  Coordinator coord(session, f.coordinator_config());
  for (const auto& t : f.targets)
    coord.add_pipeline(f.pipeline(session, t, calibration::im_rp_protocol()));
  coord.run();
  std::set<std::string> names;
  for (const auto& r : coord.results()) names.insert(r.target_name);
  EXPECT_EQ(names.size(), f.targets.size());
}

TEST(CompositePool, EmptyPoolMedianIsZero) {
  CompositePool pool;
  EXPECT_EQ(pool.median(), 0.0);
  pool.insert(0.25);
  pool.erase(0.25);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.median(), 0.0);
}

TEST(CompositePool, EraseOfAbsentValueThrows) {
  CompositePool pool;
  EXPECT_THROW(pool.erase(0.5), std::logic_error);
  pool.insert(0.5);
  EXPECT_THROW(pool.erase(0.25), std::logic_error);
  EXPECT_EQ(pool.size(), 1u);
}

class CompositePoolExactness : public ::testing::TestWithParam<std::uint64_t> {};

// The coordinator's O(1) pool median must be the very double the old
// gather-and-sort produced: after every insert or erase, compare against a
// fresh common::median over the same multiset with EXPECT_EQ (bit-exact).
// Values come from a small grid of negatives and positives, so duplicates
// are common. Each round grows the pool through odd and even sizes with
// interleaved erases, then empties it.
TEST_P(CompositePoolExactness, MedianMatchesFreshMedianBitForBit) {
  common::Rng rng(GetParam());
  CompositePool pool;
  std::vector<double> multiset;  // same values, insertion order
  auto erase_at = [&](std::size_t i) {
    pool.erase(multiset[i]);
    multiset.erase(multiset.begin() + static_cast<std::ptrdiff_t>(i));
  };
  auto check = [&] {
    ASSERT_EQ(pool.size(), multiset.size());
    EXPECT_EQ(pool.median(), common::median(multiset));
  };
  for (int round = 0; round < 12; ++round) {
    const int steps = 20 + rng.range(0, 200);
    for (int step = 0; step < steps; ++step) {
      if (multiset.empty() || rng.below(100) < 65) {
        const double v = static_cast<double>(rng.range(-40, 40)) / 7.0 +
                         static_cast<double>(rng.below(3)) * 0.1;
        pool.insert(v);
        multiset.push_back(v);
      } else {
        erase_at(rng.below(static_cast<std::uint32_t>(multiset.size())));
      }
      check();
    }
    while (!multiset.empty()) {
      erase_at(rng.below(static_cast<std::uint32_t>(multiset.size())));
      check();
    }
    EXPECT_EQ(pool.median(), 0.0);
  }

  // assign() (the checkpoint-restore path) sorts once and agrees too.
  for (int i = 0; i < 51; ++i)
    multiset.push_back(static_cast<double>(rng.range(-40, 40)) / 7.0);
  pool.assign(multiset);
  check();
  multiset.pop_back();
  pool.assign(multiset);
  check();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositePoolExactness,
                         ::testing::Values(1u, 42u, 1234u));

}  // namespace
}  // namespace impress::core

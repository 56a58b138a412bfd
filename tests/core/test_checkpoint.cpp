// Checkpoint document round-trips: the serialized form must reproduce
// every bit the resume path consumes — rng stream positions, cache keys,
// span ids, clock values — across parse(dump(x)).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "protein/datasets.hpp"
#include "support/temp_dir.hpp"

namespace impress::core {
namespace {

namespace fs = std::filesystem;

std::vector<protein::DesignTarget> targets2() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("CKPT-A", 86, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("CKPT-B", 90, protein::alpha_synuclein().tail(10)));
  return out;
}

class CheckpointDoc : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_support::make_temp_dir("impress_ckpt_");
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path() const { return (dir_ / "checkpoint.json").string(); }
  fs::path dir_;
};

// Cut a real checkpoint by running a campaign with a tight cadence; the
// last document written is a full mid-flight snapshot with live rng
// streams, cache contents and observability state.
CampaignCheckpoint real_checkpoint(const std::string& dir,
                                   bool observability = false) {
  auto cfg = im_rp_campaign(42);
  cfg.checkpoint.directory = dir;
  cfg.checkpoint.every_n_completions = 3;
  cfg.session.enable_tracing = observability;
  cfg.session.enable_metrics = observability;
  const auto targets = targets2();
  (void)Campaign(cfg).run(targets);
  return load_checkpoint(dir + "/checkpoint.json");
}

TEST_F(CheckpointDoc, RealCheckpointRoundTripsBitExactly) {
  const auto checkpoint = real_checkpoint(dir_.string());
  EXPECT_GT(checkpoint.ordinal, 0u);
  EXPECT_GT(checkpoint.now, 0.0);
  EXPECT_FALSE(checkpoint.coordinator.pipelines.empty());
  ASSERT_EQ(checkpoint.pilots.size(), 1u);

  // json -> struct -> json must be the identity on the document.
  const auto doc = to_json(checkpoint);
  const auto back = to_json(campaign_checkpoint_from_json(doc));
  EXPECT_EQ(doc.dump(), back.dump());
}

TEST_F(CheckpointDoc, ObservabilityStateRoundTrips) {
  const auto checkpoint =
      real_checkpoint(dir_.string(), /*observability=*/true);
  EXPECT_FALSE(checkpoint.trace.empty());
  EXPECT_NE(checkpoint.campaign_span, 0u);
  EXPECT_FALSE(checkpoint.metrics.empty());
  // The document records its own write marker (span + counter recorded
  // before the harvest), so a resumed tracer continues identically.
  EXPECT_GE(checkpoint.metrics.counter("impress_checkpoints_written"), 1u);

  const auto doc = to_json(checkpoint);
  const auto back = to_json(campaign_checkpoint_from_json(doc));
  EXPECT_EQ(doc.dump(), back.dump());
}

TEST_F(CheckpointDoc, SaveLoadPreservesDocument) {
  const auto checkpoint = real_checkpoint(dir_.string());
  const auto p = (dir_ / "copy.json").string();
  save_checkpoint(checkpoint, p);
  const auto loaded = load_checkpoint(p);
  EXPECT_EQ(to_json(checkpoint).dump(), to_json(loaded).dump());
}

TEST_F(CheckpointDoc, LoaderRejectsWrongKindAndVersion) {
  common::Json::Object o;
  o["schema_version"] = 2;
  o["kind"] = std::string("impress.session_dump");
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(o)),
               std::invalid_argument);
  o["kind"] = std::string("impress.checkpoint");
  o["schema_version"] = 1;
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(o)),
               std::invalid_argument);
  EXPECT_THROW((void)campaign_checkpoint_from_json(common::Json(3.0)),
               std::invalid_argument);
}

// Every byte a fabric worker ships: pdz_benchmark(9) in 3 shards with a
// checkpoint every 5 completions, each sink document dumped as the wire
// does. The digest and size were recorded from the snprintf-based writer;
// any change to number or string text, key order or document content
// moves them.
TEST_F(CheckpointDoc, BytesMatchParentDigest) {
  constexpr std::size_t kParentDocuments = 21;
  constexpr std::size_t kParentBytes = 15'453'184;
  constexpr std::uint64_t kParentDigest = 15428209619703515355ULL;

  const auto targets = protein::pdz_benchmark(9);
  const ShardPlan plan = ShardPlan::contiguous(targets, 3);
  CampaignConfig config = shard_campaign_config(im_rp_campaign(42), 5);
  std::string shipped;
  std::size_t documents = 0;
  config.checkpoint.sink = [&](const CampaignCheckpoint& doc) {
    shipped += to_json(doc).dump();
    ++documents;
  };
  for (std::size_t s = 0; s < plan.shards.size(); ++s)
    (void)Campaign(config).run(plan.targets_for(s, targets));

  EXPECT_EQ(documents, kParentDocuments);
  EXPECT_EQ(shipped.size(), kParentBytes);
  EXPECT_EQ(common::stable_hash(shipped), kParentDigest);
}

TEST(FoldCacheSnapshot, RoundTripPreservesContentsAndRecency) {
  fold::FoldCache::Config config{.capacity = 8, .shards = 2};
  fold::FoldCache cache(config);
  // Distinct keys; values only need distinguishable best_index.
  for (std::uint64_t k = 1; k <= 6; ++k) {
    fold::Prediction p;
    p.models.resize(1);
    p.models[0].metrics.plddt = static_cast<double>(k);
    cache.insert(k * 0x9e3779b97f4a7c15ULL, p);
  }
  // Touch some entries to perturb recency order.
  (void)cache.lookup(2 * 0x9e3779b97f4a7c15ULL);
  (void)cache.lookup(5 * 0x9e3779b97f4a7c15ULL);
  (void)cache.lookup(12345u);  // miss

  const auto snap = cache.snapshot();
  fold::FoldCache restored(config);
  restored.restore(snap);

  EXPECT_EQ(restored.stats().hits, cache.stats().hits);
  EXPECT_EQ(restored.stats().misses, cache.stats().misses);
  EXPECT_EQ(restored.stats().evictions, cache.stats().evictions);
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const auto hit = restored.lookup(k * 0x9e3779b97f4a7c15ULL);
    ASSERT_TRUE(hit.has_value()) << "key " << k;
    EXPECT_DOUBLE_EQ(hit->models.at(0).metrics.plddt, static_cast<double>(k));
  }
  // Snapshot-of-restore equals the original snapshot (same shards, same
  // MRU order) once the verification lookups above are accounted for —
  // compare the raw key layout instead of counters.
  auto layout = [](const fold::FoldCache::Snapshot& s) {
    std::vector<std::vector<std::uint64_t>> keys;
    for (const auto& shard : s.shards) {
      keys.emplace_back();
      for (const auto& e : shard) keys.back().push_back(e.key);
    }
    return keys;
  };
  fold::FoldCache untouched(config);
  untouched.restore(snap);
  EXPECT_EQ(layout(untouched.snapshot()), layout(snap));
}

TEST(FoldCacheSnapshot, RestoreRejectsShardMismatch) {
  fold::FoldCache a(fold::FoldCache::Config{.capacity = 8, .shards = 2});
  fold::FoldCache b(fold::FoldCache::Config{.capacity = 8, .shards = 4});
  EXPECT_THROW(b.restore(a.snapshot()), std::invalid_argument);
}

}  // namespace
}  // namespace impress::core

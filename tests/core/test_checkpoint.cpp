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
#include "core/dpo_generator.hpp"
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
// checkpoint every 5 completions, each sink document written as the wire
// does. The digest and size were recorded from the snprintf-based tree
// serializer; any change to number or string text, key order or document
// content moves them.
TEST_F(CheckpointDoc, BytesMatchParentDigest) {
  constexpr std::size_t kParentDocuments = 21;
  constexpr std::size_t kParentBytes = 15'453'184;
  constexpr std::uint64_t kParentDigest = 15428209619703515355ULL;

  const auto targets = protein::pdz_benchmark(9);
  const ShardPlan plan = ShardPlan::contiguous(targets, 3);
  CampaignConfig config = shard_campaign_config(im_rp_campaign(42), 5);
  std::string shipped;
  std::size_t documents = 0;
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    // One writer per shard campaign, as a fabric worker uses it.
    CheckpointWriter writer;
    config.checkpoint.sink = [&](const CampaignCheckpoint& doc) {
      shipped += writer.write(doc);
      ++documents;
    };
    (void)Campaign(config).run(plan.targets_for(s, targets));
  }

  EXPECT_EQ(documents, kParentDocuments);
  EXPECT_EQ(shipped.size(), kParentBytes);
  EXPECT_EQ(common::stable_hash(shipped), kParentDigest);
}

// One writer serves every checkpoint of a campaign and memoizes each
// fold-cache entry's text. Drive it through a small cache that sees
// inserts, MRU-reordering lookups, evictions and a key re-inserted after
// its eviction; every write must equal a fresh writer's, and the whole
// sequence must hash to what the tree serializer wrote for it.
TEST_F(CheckpointDoc, WriterMemoSurvivesCacheChurn) {
  // Recorded from the tree serializer's to_json(doc).dump() before the
  // streaming writer replaced it.
  constexpr std::size_t kParentDocuments = 7;
  constexpr std::size_t kParentBytes = 1'416'720;
  constexpr std::uint64_t kParentDigest = 6307780130354609628ULL;

  CampaignCheckpoint doc = real_checkpoint(dir_.string());
  ASSERT_TRUE(doc.fold_cache.has_value());
  std::vector<fold::FoldCache::Snapshot::Entry> pool;
  for (const auto& shard : doc.fold_cache->shards)
    for (const auto& e : shard) pool.push_back(e);
  ASSERT_GE(pool.size(), 10u);

  fold::FoldCache cache(fold::FoldCache::Config{.capacity = 4, .shards = 2});
  auto insert = [&](std::size_t i) {
    cache.insert(pool[i].key, pool[i].prediction);
  };
  auto resident = [&](std::uint64_t key) {
    for (const auto& shard : cache.snapshot().shards)
      for (const auto& e : shard)
        if (e.key == key) return true;
    return false;
  };

  CheckpointWriter writer;
  std::string shipped;
  std::size_t documents = 0;
  auto write = [&] {
    ++doc.ordinal;
    doc.fold_cache = cache.snapshot();
    const std::string text = writer.write(doc);
    EXPECT_EQ(text, CheckpointWriter{}.write(doc)) << "ordinal " << doc.ordinal;
    shipped += text;
    ++documents;
  };

  for (std::size_t i = 0; i < 3; ++i) insert(i);
  write();  // every entry new
  (void)cache.lookup(pool[0].key);
  (void)cache.lookup(pool[2].key);
  write();  // same entries, MRU order changed
  for (std::size_t i = 3; i < 7; ++i) insert(i);
  ASSERT_GT(cache.stats().evictions, 0u);
  write();  // evictions drop entries from the memo
  std::size_t evicted = pool.size();
  for (std::size_t i = 0; i < 7 && evicted == pool.size(); ++i)
    if (!resident(pool[i].key)) evicted = i;
  ASSERT_LT(evicted, pool.size());
  insert(evicted);  // back after the write that pruned it
  write();
  // Evicted and re-inserted between two writes: the memo still holds it.
  std::uint64_t mru = 0;
  for (const auto& shard : cache.snapshot().shards)
    if (!shard.empty() && mru == 0) mru = shard.front().key;
  std::size_t again = pool.size();
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (pool[i].key == mru) again = i;
  ASSERT_LT(again, pool.size());
  for (std::size_t i = 7; i < pool.size() && resident(mru); ++i) insert(i);
  ASSERT_FALSE(resident(mru));
  insert(again);
  write();
  (void)cache.lookup(12345u);  // miss: counters move, entries do not
  write();
  write();  // unchanged cache: all text from the memo

  EXPECT_EQ(documents, kParentDocuments);
  EXPECT_EQ(shipped.size(), kParentBytes);
  EXPECT_EQ(common::stable_hash(shipped), kParentDigest);
}

// The writer must put every object's keys in the order Json::dump does.
// The digest tests may not reach every optional section, so take
// checkpoints that have them all — trace and metrics, a stateful
// generator, parked fold inputs, last_metrics — and require the text to
// be its own parse-and-dump.
TEST_F(CheckpointDoc, WriterMatchesDumpInEveryOptionalSection) {
  auto cfg = im_rp_campaign(42);
  cfg.generator = std::make_shared<DpoGenerator>();
  cfg.checkpoint.every_n_completions = 2;
  cfg.session.enable_tracing = true;
  cfg.session.enable_metrics = true;
  bool parked_input = false;
  bool last_metrics = false;
  std::size_t documents = 0;
  CheckpointWriter writer;
  cfg.checkpoint.sink = [&](const CampaignCheckpoint& c) {
    ++documents;
    EXPECT_FALSE(c.trace.empty());
    EXPECT_FALSE(c.metrics.empty());
    EXPECT_FALSE(c.generator_state.is_null());
    for (const auto& pa : c.coordinator.parked)
      parked_input = parked_input || pa.fold_input.has_value();
    for (const auto& p : c.coordinator.pipelines)
      last_metrics = last_metrics || p.last_metrics.has_value();
    const std::string text = writer.write(c);
    EXPECT_EQ(text, common::Json::parse(text).dump())
        << "ordinal " << c.ordinal;
  };
  (void)Campaign(cfg).run(targets2());
  EXPECT_GT(documents, 1u);
  EXPECT_TRUE(parked_input);
  EXPECT_TRUE(last_metrics);
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

// A snapshot shares its predictions with the cache it was taken from.
// Evicting those entries or clearing the cache must leave it as it was,
// and a cache restored from it must snapshot back to the same document.
TEST(FoldCacheSnapshot, SurvivesEvictionAndClear) {
  const auto t = protein::pdz_benchmark(1).front();
  const auto complex = t.start_complex();
  const fold::AlphaFold folder;
  const fold::FoldCache::Config config{.capacity = 4, .shards = 2};
  fold::FoldCache cache(config);
  auto fold_with = [&](std::uint64_t seed) {
    common::Rng rng(seed);  // the rng is part of the key: one entry each
    (void)cache.predict(folder, complex, t.landscape, rng);
  };
  // The snapshot as a checkpoint writes it: keys, order, every model's
  // coordinates and the counters.
  auto text = [](const fold::FoldCache::Snapshot& snap) {
    CampaignCheckpoint c;
    c.fold_cache = snap;
    return CheckpointWriter{}.write(c);
  };

  for (std::uint64_t seed = 1; seed <= 4; ++seed) fold_with(seed);
  const fold::FoldCache::Snapshot snap = cache.snapshot();
  std::size_t entries = 0;
  for (const auto& shard : snap.shards) entries += shard.size();
  ASSERT_GE(entries, 2u);
  const std::string before = text(snap);

  for (std::uint64_t seed = 100; seed <= 108; ++seed) fold_with(seed);
  for (const auto& shard : cache.snapshot().shards)
    for (const auto& e : shard)
      for (const auto& old : snap.shards)
        for (const auto& o : old) ASSERT_NE(e.key, o.key) << "not evicted";
  EXPECT_EQ(text(snap), before);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(text(snap), before);

  fold::FoldCache restored(config);
  restored.restore(snap);
  EXPECT_EQ(text(restored.snapshot()), before);
}

TEST(FoldCacheSnapshot, RestoreRejectsShardMismatch) {
  fold::FoldCache a(fold::FoldCache::Config{.capacity = 8, .shards = 2});
  fold::FoldCache b(fold::FoldCache::Config{.capacity = 8, .shards = 4});
  EXPECT_THROW(b.restore(a.snapshot()), std::invalid_argument);
}

}  // namespace
}  // namespace impress::core

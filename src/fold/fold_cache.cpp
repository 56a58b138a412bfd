#include "fold/fold_cache.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"

namespace impress::fold {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return common::splitmix64(h ^ v);
}

std::uint64_t mix_double(std::uint64_t h, double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

std::uint64_t mix_sequence(std::uint64_t h,
                           const protein::Sequence& seq) noexcept {
  h = mix(h, seq.size());
  for (const protein::AminoAcid aa : seq)
    h = mix(h, static_cast<std::uint64_t>(aa) + 1);
  return h;
}

}  // namespace

FoldCache::FoldCache() : FoldCache(Config{}) {}

FoldCache::FoldCache(Config config) : config_(config) {
  if (config_.capacity == 0)
    throw std::invalid_argument("FoldCache: capacity must be > 0");
  if (config_.shards == 0)
    throw std::invalid_argument("FoldCache: shards must be > 0");
  config_.shards = std::min(config_.shards, config_.capacity);
  per_shard_capacity_ =
      (config_.capacity + config_.shards - 1) / config_.shards;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

std::uint64_t FoldCache::content_key(const protein::Complex& complex,
                                     const protein::FitnessLandscape& landscape,
                                     const PredictorConfig& config) noexcept {
  std::uint64_t h = 0x7f4a7c15u;  // arbitrary non-zero start
  h = mix(h, landscape.fingerprint());
  h = mix(h, common::stable_hash(complex.structure.name()));
  h = mix_sequence(h, complex.receptor().sequence);
  h = mix_sequence(h, complex.peptide().sequence);
  h = mix(h, config.num_models);
  h = mix_double(h, config.msa_quality);
  h = mix_double(h, config.model_noise);
  h = mix_double(h, config.metric_noise);
  return h;
}

std::uint64_t FoldCache::key(std::uint64_t content_key,
                             const common::Rng& rng) noexcept {
  return mix(content_key, rng.fingerprint());
}

FoldCache::Shard& FoldCache::shard_for(std::uint64_t key) noexcept {
  return *shards_[common::splitmix64(key) % shards_.size()];
}

std::optional<Prediction> FoldCache::lookup(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (obs_misses_ != nullptr) obs_misses_->inc();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (obs_hits_ != nullptr) obs_hits_->inc();
  return *it->second->second;
}

void FoldCache::insert(std::uint64_t key, Prediction prediction) {
  // Two blocks, not make_shared's one: with the fused block, a process
  // running campaign after campaign (perfbench campaign_scale, 4-thread
  // Xeon, glibc malloc) peaked ~10 % higher from its third campaign on,
  // a heap-layout effect; one campaign's peak was the same either way.
  insert(key, std::shared_ptr<const Prediction>(
                  new Prediction(std::move(prediction))));
}

void FoldCache::insert(std::uint64_t key,
                       std::shared_ptr<const Prediction> prediction) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Duplicate insert (two threads raced the same miss): refresh LRU,
    // keep the incumbent — both computed identical predictions. The
    // loser's work is real, though: count the discard so the stats
    // conserve (misses == entries + evictions + duplicate_discards).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    duplicate_discards_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.lru.emplace_front(key, std::move(prediction));
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

Prediction FoldCache::predict(const AlphaFold& folder,
                              const protein::Complex& complex,
                              const protein::FitnessLandscape& landscape,
                              common::Rng& rng,
                              const std::function<void()>& on_miss) {
  const std::uint64_t k =
      key(content_key(complex, landscape, folder.config()), rng);
  // Visible in the trace as a child of the executing attempt span.
  obs::ScopedSpan span = obs::ambient_span("fold.cache");
  if (auto cached = lookup(k)) {
    span.attr("cache", "hit");
    return std::move(*cached);
  }
  span.attr("cache", "miss");
  if (on_miss) on_miss();
  Prediction fresh = folder.predict(complex, landscape, rng);
  insert(k, fresh);
  return fresh;
}

hpc::CacheSummary FoldCache::stats() const {
  hpc::CacheSummary s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.duplicate_discards = duplicate_discards_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    s.entries += shard->index.size();
  }
  return s;
}

FoldCache::Snapshot FoldCache::snapshot() const {
  Snapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    std::vector<Snapshot::Entry> entries;
    entries.reserve(shard->lru.size());
    for (const auto& [key, prediction] : shard->lru)
      entries.push_back(Snapshot::Entry{key, prediction});
    snap.shards.push_back(std::move(entries));
  }
  snap.hits = hits_.load(std::memory_order_relaxed);
  snap.misses = misses_.load(std::memory_order_relaxed);
  snap.evictions = evictions_.load(std::memory_order_relaxed);
  snap.duplicate_discards =
      duplicate_discards_.load(std::memory_order_relaxed);
  return snap;
}

void FoldCache::restore(const Snapshot& snap) {
  if (snap.shards.size() != shards_.size())
    throw std::invalid_argument(
        "FoldCache::restore: shard count mismatch (snapshot from a "
        "differently-configured cache)");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    // Entries are MRU-first; push_front in reverse rebuilds that order.
    const auto& entries = snap.shards[s];
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      shard.lru.emplace_front(it->key, it->prediction);
      shard.index.emplace(it->key, shard.lru.begin());
    }
  }
  hits_.store(snap.hits, std::memory_order_relaxed);
  misses_.store(snap.misses, std::memory_order_relaxed);
  evictions_.store(snap.evictions, std::memory_order_relaxed);
  duplicate_discards_.store(snap.duplicate_discards,
                            std::memory_order_relaxed);
}

void FoldCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  duplicate_discards_.store(0, std::memory_order_relaxed);
}

}  // namespace impress::fold

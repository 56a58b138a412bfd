// Campaign checkpoints: the versioned, crash-consistent document that
// captures an *in-flight* campaign at a coordinator quiesce point, and
// the loader that rebuilds it (docs/persistence.md).
//
// A checkpoint extends the session-dump idea from "archive a finished
// run" to "cut a running one": coordinator state (pipelines mid-cycle,
// parked task submissions, sub-pipeline budgets), runtime state (clock,
// pilots, executor rng streams, profiler/trace/metrics, uid and task
// counters), the fold memo cache, and every live rng stream's position.
// Campaign::resume() reconstructs all of it so a checkpointed-then-
// resumed campaign reproduces the uninterrupted CampaignResult
// bit-for-bit (simulated mode; pinned by Determinism.* tests).
//
// Serialization notes: every uint64 whose exact bits matter (rng state,
// cache keys, span ids, sequence numbers) is encoded as a hex string —
// JSON numbers are doubles here and would silently round above 2^53.
// Doubles rely on the parser/dumper bit-exact round-trip pinned by
// tests/common/test_json.cpp. CheckpointWriter is the one serializer:
// it streams the document text, and to_json() is that text parsed.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "core/coordinator.hpp"
#include "fold/fold_cache.hpp"
#include "runtime/session.hpp"

namespace impress::core {

/// Everything needed to resume a campaign mid-flight. Built by the
/// campaign's checkpoint sink at a coordinator quiesce point; consumed by
/// Campaign::resume().
struct CampaignCheckpoint {
  std::string campaign_name;
  std::uint64_t seed = 0;
  std::size_t targets = 0;   ///< root target count (config validation)
  std::uint64_t ordinal = 0; ///< 1-based index of this checkpoint

  // Runtime layer (rp::SessionRestore counterpart).
  double now = 0.0;
  std::vector<hpc::ProfileEvent> profiler_events;
  std::vector<obs::SpanRecord> trace;
  std::uint64_t trace_next_seq = 1;
  obs::SpanId campaign_span = 0;  ///< still-open campaign root span
  obs::MetricsSnapshot metrics;
  std::map<std::string, std::uint64_t> uid_counters;
  rp::TaskManager::Counters task_counters;
  std::vector<rp::PilotRestore> pilots;

  // Protocol layer.
  CoordinatorCheckpoint coordinator;
  std::optional<fold::FoldCache::Snapshot> fold_cache;
  /// Opaque per-generator state (SequenceGenerator::checkpoint_state);
  /// null for stateless generators.
  common::Json generator_state;
};

/// Streams a checkpoint (schema kind "impress.checkpoint", version 2 —
/// version 1 is the finished-campaign session dump) into a string,
/// byte-for-byte what Json::dump writes for the document: keys in sorted
/// order, no whitespace, printf-exact numbers.
///
/// A writer serves one campaign's checkpoints. The fold memo cache is most
/// of every document and only grows, so the writer keeps each cache
/// entry's text under its key: an entry is formatted once and every later
/// checkpoint copies the text. That is sound because FoldCache holds one
/// Prediction per key (a hit returns exactly what the miss path computes;
/// see fold/fold_cache.hpp). Each write prunes the memo to the keys of the
/// document being written, so its memory stays bounded by the cache. Not
/// thread-safe; use one writer per campaign.
class CheckpointWriter {
 public:
  [[nodiscard]] std::string write(const CampaignCheckpoint& checkpoint);
  /// write() plus a trailing newline, crash-consistently
  /// (common::write_file_atomic: temp file + fsync + rename) so an
  /// interrupted write leaves the previous checkpoint intact and loadable.
  void save(const CampaignCheckpoint& checkpoint, const std::string& path);

 private:
  using Memo = std::unordered_map<std::uint64_t, std::string>;
  void put_cache(const fold::FoldCache::Snapshot& cache, std::string& out);

  Memo entries_;  ///< cache key -> {"key":...,"prediction":...} text
  std::size_t last_size_ = 0;
};

/// The document as a tree: a fresh writer's text, parsed.
[[nodiscard]] common::Json to_json(const CampaignCheckpoint& checkpoint);

/// Rebuild from a document. Throws std::invalid_argument on kind/version
/// mismatch or missing fields.
[[nodiscard]] CampaignCheckpoint campaign_checkpoint_from_json(
    const common::Json& doc);

/// One-off save through a fresh writer: CheckpointWriter{}.save().
void save_checkpoint(const CampaignCheckpoint& checkpoint,
                     const std::string& path);
[[nodiscard]] CampaignCheckpoint load_checkpoint(const std::string& path);

}  // namespace impress::core

// Structured tracing: RAII spans with parent/child nesting, recorded into
// a common::SeqLog (the per-thread-buffered, globally sequenced log that
// also backs hpc::Profiler) and exported as a chrome://tracing /
// Perfetto-loadable JSON document (obs/export.hpp).
//
// A span is an interval [start, end] with a name, a category, an optional
// parent span and string attributes. Span trees carry campaign / pipeline
// / task / attempt identity, so a fold retry shows up as a sibling
// "attempt" span under its task, inside its pipeline-iteration stage span.
//
// Determinism contract (pinned by tests/obs/test_golden_trace.cpp and the
// Determinism suite): tracing never draws from any rng and never feeds
// back into the traced computation, so enabling it must not perturb
// campaign results — the same contract the fold cache honours. In
// simulated mode the span tree (names, nesting, ordinal order) is itself
// a pure function of the seed.
//
// Cost model: a disabled tracer (the default) costs one branch per call
// site; no buffer is ever allocated.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/seq_log.hpp"

namespace impress::obs {

/// Identifies one span within one Tracer; 0 means "no span".
using SpanId = std::uint64_t;

/// Well-known span categories (the nesting levels of a campaign trace).
namespace categories {
inline constexpr std::string_view kCampaign = "campaign";
inline constexpr std::string_view kPipeline = "pipeline";
inline constexpr std::string_view kStage = "stage";
inline constexpr std::string_view kTask = "task";
inline constexpr std::string_view kAttempt = "attempt";
inline constexpr std::string_view kPhase = "phase";
inline constexpr std::string_view kWork = "work";
inline constexpr std::string_view kDecision = "decision";
}  // namespace categories

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = root
  std::string name;
  std::string category;
  double start = 0.0;
  double end = -1.0;  ///< < start means the span was never closed
  std::uint64_t open_seq = 0;   ///< global ordinal of the begin event
  std::uint64_t close_seq = 0;  ///< 0 when never closed
  std::vector<std::pair<std::string, std::string>> attrs;

  [[nodiscard]] bool closed() const noexcept { return end >= start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Wire the clock used by ScopedSpan and now(); spans recorded through
  /// the explicit-time overloads never consult it.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  [[nodiscard]] double now() const { return clock_ ? clock_() : 0.0; }

  /// Open a span at `time`; returns its id (0 when disabled, which every
  /// other member accepts and ignores).
  [[nodiscard]] SpanId begin(double time, std::string_view name,
                             std::string_view category, SpanId parent = 0);
  /// Close a span. Closing id 0 (or twice) is a no-op.
  void end(SpanId id, double time);
  /// Attach a key/value attribute to an open-or-closed span.
  void attr(SpanId id, std::string_view key, std::string_view value);
  /// Zero-duration marker span (begin and end at `time`).
  SpanId instant(double time, std::string_view name,
                 std::string_view category, SpanId parent = 0);

  /// All spans, ordered by open ordinal, with attributes and close times
  /// merged in. Thread-safe snapshot.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Number of spans opened so far.
  [[nodiscard]] std::size_t size() const;
  /// Drop every span, preloaded ones included. Span ids keep counting.
  void clear();

  /// Checkpoint restore: seed the tracer with spans recorded before the
  /// cut and continue numbering at `next_seq` (the value checkpointed
  /// from the original run, so post-resume seqs match the uninterrupted
  /// run's). Post-resume end()/attr() calls on a preloaded span id merge
  /// into its record. Call once, before any concurrent use.
  void preload(std::vector<SpanRecord> spans, std::uint64_t next_seq);
  /// Next seq the tracer will assign (checkpointed alongside spans()).
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return log_.next_seq();
  }

 private:
  enum class Kind : std::uint8_t { kOpen, kClose, kAttr };
  /// One log record. Its seq is the event's global ordinal, and an open's
  /// seq doubles as its span's id (seqs start at 1, so id 0 stays "no
  /// span").
  struct Event {
    Kind kind = Kind::kOpen;
    SpanId id = 0;  ///< target span (kClose, kAttr)
    SpanId parent = 0;
    double time = 0.0;
    std::string name;      ///< span name (kOpen) or attr key (kAttr)
    std::string category;  ///< span category (kOpen) or attr value (kAttr)
  };

  const bool enabled_;
  std::function<double()> clock_;
  mutable std::mutex preloaded_mutex_;  // guards preloaded_
  /// Spans restored from a checkpoint (see preload); their ids are all
  /// below the restored next seq, so they sort before live spans.
  std::vector<SpanRecord> preloaded_;
  common::SeqLog<Event> log_;
};

/// RAII span: opens on construction using the tracer's clock, closes on
/// destruction. Null/disabled tracer => fully inert object.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, std::string_view name, std::string_view category,
             SpanId parent = 0);
  ScopedSpan(ScopedSpan&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)),
        id_(std::exchange(other.id_, 0)),
        ambient_(std::exchange(other.ambient_, false)) {}
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      close();
      tracer_ = std::exchange(other.tracer_, nullptr);
      id_ = std::exchange(other.id_, 0);
      ambient_ = std::exchange(other.ambient_, false);
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  [[nodiscard]] SpanId id() const noexcept { return id_; }
  void attr(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr && id_ != 0) tracer_->attr(id_, key, value);
  }
  /// Close early (idempotent).
  void close();

 private:
  friend ScopedSpan ambient_span(std::string_view, std::string_view);
  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
  bool ambient_ = false;  ///< pushed onto the ambient parent stack
};

/// Ambient trace context: the executor installs (tracer, parent span)
/// around a task's work function so library code deep inside the call —
/// the mpnn sampler, the fold surrogate, the fold cache — can open child
/// spans without any tracer plumbing through their APIs. Purely
/// thread-local; costs one pointer push/pop when tracing is enabled and a
/// single branch when it is not.
class AmbientContext {
 public:
  AmbientContext(Tracer* tracer, SpanId parent) noexcept;
  ~AmbientContext();
  AmbientContext(const AmbientContext&) = delete;
  AmbientContext& operator=(const AmbientContext&) = delete;

 private:
  bool pushed_ = false;
};

/// The innermost ambient tracer/parent for this thread (nullptr/0 when no
/// enabled context is installed).
[[nodiscard]] Tracer* ambient_tracer() noexcept;
[[nodiscard]] SpanId ambient_parent() noexcept;

/// RAII child span under the current ambient context (inert without one).
/// While alive it *is* the ambient parent, so nested calls nest naturally.
[[nodiscard]] ScopedSpan ambient_span(
    std::string_view name, std::string_view category = categories::kWork);

}  // namespace impress::obs

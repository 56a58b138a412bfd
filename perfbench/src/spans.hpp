// In-memory span recording for traced benchmark runs.
//
// Spans are recorded by the benchmark around its calls into each layer
// (the program is not instrumented): name, start, end, the span that was
// open when it began, and a request id shared by the spans of one unit of
// work. They stay in memory until the run ends, then go out as a
// Chrome-trace file and as per-layer self times. A span's layer is its
// name up to the first '.'.
//
// Single-threaded: every workload is driven from one thread.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder, -1 for a root
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  static constexpr std::uint64_t kAnyRequest = ~std::uint64_t{0};

  /// Open a span as a child of the innermost open one; returns its index.
  /// Request 0 inherits the parent's request id.
  std::size_t open(const char* name, std::uint64_t request);
  void close(std::size_t index);
  void clear();

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Durations, in ns, of every span with this name (and request).
  [[nodiscard]] std::vector<double> durations_ns(
      const char* name, std::uint64_t request = kAnyRequest) const;
  /// Summed duration, in seconds, of every span with this name (and
  /// request).
  [[nodiscard]] double total_s(const char* name,
                               std::uint64_t request = kAnyRequest) const;
  /// Duration of one span minus the part its direct children cover, in s.
  [[nodiscard]] double self_s(std::size_t index) const;

  struct LayerTime {
    std::size_t spans = 0;
    double total_s = 0.0;  ///< summed over root-most spans of the layer
    double self_s = 0.0;   ///< duration minus the part child spans cover
  };
  /// Self time per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// Write every span as a Chrome-trace ("X" complete events) document.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t request = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, request) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench

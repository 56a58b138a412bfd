// Shared pieces of the repository benchmark: run options, the report a
// workload fills, and small statistics helpers. See ../README.md for the
// workloads, the metrics and what each one is expected to move.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-up repetitions per run at the least; setup_s is their median.
inline constexpr std::size_t kMinSetups = 21;
/// peak_rss_mb is read after this many full-size passes (or at the end of
/// a shorter run), so it does not grow with the number of passes that fit
/// in the run.
inline constexpr std::size_t kRssPasses = 3;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check size: every workload shrinks to a seconds-scale input that
  /// still reaches every layer and emits every metric.
  bool tiny = false;
  /// Chrome-trace span file written by a traced run.
  std::string spans_out;
};

/// What one workload run reports: named metrics in emission order, the
/// operation counts, and every output check that failed.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Traced runs: the spans recorded around every layer call.
  SpanRecorder spans;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] double failed_share() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  /// Record an output check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Repeated measurements of one quantity (pass times, slopes, call
/// durations, frame sizes), reported as a median or another quantile.
struct Samples {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  [[nodiscard]] double median() const;
  /// Linear-interpolated quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
};

/// Log-log slope of wall time against the work done (tasks, submissions)
/// between a small and a full-size run.
[[nodiscard]] double loglog_slope(double work_small, double wall_small,
                                  double work_large, double wall_large);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds one run of a fixed, benchmark-owned kernel takes (dependent
/// random reads over an 8 MiB table and a 64Ki-element sort): a probe of
/// how fast the machine is right now. It calls no program code, so
/// program changes cannot move it.
[[nodiscard]] double reference_seconds();

/// Reference-kernel time that counts as one reference second.
inline constexpr double kReferenceNominalS = 0.010;

/// Throughput of a run: `work` units per full-size pass over the passes'
/// median wall time, as measured (bench.ops_per_wall_s) and rescaled to a
/// machine whose reference kernel takes kReferenceNominalS
/// (ops_per_ref_s). The rescaling takes out the machine's speed drift
/// between runs, which the reference kernel, sampled before every pass,
/// follows. Also reports the median reference time (bench.reference_s).
void add_throughput(Report& report, double work, const Samples& wall,
                    const Samples& reference);

// One entry point per workload. Each measures for opt.seconds, fills the
// end-to-end metrics (untraced) or the per-layer metrics (traced), and
// records every output check in the report.
void run_campaign_scale(const Options& opt, Report& report);
void run_fabric_failover(const Options& opt, Report& report);
void run_service_overload(const Options& opt, Report& report);

}  // namespace perfbench

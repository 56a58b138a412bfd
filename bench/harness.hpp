// The one CLI, report layout and regression gate shared by the self-timed
// baselines (bench_report, bench_sim, bench_service, bench_infer); see
// docs/performance.md §5. Each bench measures, then hands its gates and
// results to finish():
//
//   <bench> [--smoke] [--out FILE] [--check BASELINE]
//
// writes {"schema": "impress.bench.v1", "bench", "mode", "hardware_threads",
// "gates": {<name>: {"value", "vs_baseline", "floor"?}}, "results"} to FILE
// (default BENCH_<name>.json). Bad arguments exit 2; --check exits 1 with a
// "FAIL: ..." line per failed gate. Every gate is higher-is-better.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace impress::bench {

inline constexpr const char* kSchema = "impress.bench.v1";
/// A baseline-relative gate fails under this fraction of its baseline.
inline constexpr double kBaselineFraction = 0.8;

struct Gate {
  std::string name;
  double value = 0.0;
  std::optional<double> floor = std::nullopt;  ///< fail under this value
  bool vs_baseline = false;  ///< fail under kBaselineFraction x baseline
};

struct Options {
  std::string bench;  ///< "kernels", "sim", "service", "infer"
  bool smoke = false;
  std::string out = {};    ///< report path
  std::string check = {};  ///< baseline path; empty = no check
};

/// Parses argv; prints usage and returns nullopt on a bad argument.
[[nodiscard]] std::optional<Options> parse_args(const std::string& bench,
                                                int argc, char** argv);

/// The report document for one run.
[[nodiscard]] common::Json document(const Options& opt,
                                    const std::vector<Gate>& gates,
                                    common::Json::Object results);

/// Failure messages of `current` against `baseline`; empty when it passes.
/// Fails on a schema or bench mismatch, a gate under its floor, a gate
/// under kBaselineFraction x its baseline value, and a gate missing from
/// the baseline (which must then be regenerated).
[[nodiscard]] std::vector<std::string> check(const common::Json& current,
                                             const common::Json& baseline);

/// Prints the gates, writes the report to opt.out and, with --check, gates
/// it against the baseline. Returns the process exit code.
[[nodiscard]] int finish(const Options& opt, const std::vector<Gate>& gates,
                         common::Json::Object results);

}  // namespace impress::bench

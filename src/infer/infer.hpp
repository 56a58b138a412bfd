// Inference-server surrogate: deterministic GPU batching accounting
// between the executors and the AlphaFold / ProteinMPNN model calls.
//
// Real adaptive-design middleware does not run one model invocation per
// task: requests funnel to a resident inference server that coalesces
// them into GPU batches, amortizing weight residency and launch setup
// over up to max_batch requests at the cost of bounded (max_linger_s)
// queueing delay. This module reproduces that component as a surrogate:
// the science (the actual predict/design call) is computed synchronously
// by the requesting executor with the caller's rng, while the batching is
// modeled as deterministic accounting over request arrival times.
//
// Determinism contract: batching on/off, batch size, linger, cost models
// and GPU speed factors are bit-unobservable in campaign results. fold()
// goes through FoldCache::predict itself, accounting its dispatch in the
// cache's miss hook, and design() runs the generator call unchanged —
// the server adds counters, never behaviour. What batching *would* have
// changed — per-dispatch GPU seconds — is reported as modeled latency
// per stream:
//
//   batch_latency(n) = (setup_s + n * per_item_s) / speed_factor
//
// so a full batch of 8 under a setup cost 6x the per-item cost models the
// classic ~4x throughput gain over one-request-per-dispatch, and a mixed
// fleet's slowest GPU generation (speed_factor = min over the serving
// nodes' hpc::NodeSpec::gpu_speed_factor) bounds every batch it serves.
//
// The accounting is NOT part of campaign checkpoints: a resumed campaign
// restarts its batching statistics at zero while the science stays
// bit-exact (docs/inference.md).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "fold/fold.hpp"
#include "fold/fold_cache.hpp"
#include "mpnn/mpnn.hpp"

namespace impress::infer {

/// When a dispatch closes: at max_batch requests, or when a request
/// arrives more than max_linger_s after the open batch's first member
/// (the late request starts the next batch — the server would have
/// launched the stale one long before).
struct BatchPolicy {
  std::uint32_t max_batch = 8;
  double max_linger_s = 600.0;
};

/// Per-dispatch GPU latency model: fixed setup (weight load, graph
/// capture, host/device staging) plus a linear per-item cost.
struct GpuCostModel {
  double setup_s = 360.0;
  double per_item_s = 1800.0;

  /// Modeled latency of one dispatch of n items on a GPU `speed_factor`
  /// times faster than the calibration baseline.
  [[nodiscard]] double batch_latency_s(std::uint32_t n,
                                       double speed_factor = 1.0) const;
};

/// Lifetime accounting of one request stream (fold or design).
struct StreamStats {
  std::uint64_t requests = 0;    ///< all requests, including cache hits
  std::uint64_t cache_hits = 0;  ///< answered without a GPU dispatch
  std::uint64_t batches = 0;     ///< dispatches (closed batches)
  std::uint32_t max_batch = 0;   ///< largest batch dispatched
  double batched_gpu_s = 0.0;    ///< sum of batch_latency over dispatches
  double unbatched_gpu_s = 0.0;  ///< sum of batch_latency(1) per dispatch item

  /// Modeled throughput gain of batching: unbatched / batched GPU
  /// seconds for the same work (1.0 when nothing was dispatched).
  [[nodiscard]] double speedup() const noexcept;
};

/// Online batch-size selection from observed stage-completion cadence.
/// Pure arithmetic on the virtual timestamps the coordinator feeds it, so
/// decisions replay bit-for-bit in simulated mode: an EWMA of completion
/// gaps estimates the arrival rate, and the chosen size is the largest
/// batch that fills within the linger budget at that rate,
///
///   batch = clamp(1 + floor(max_linger_s / ewma_gap), min, max).
class BatchTuner {
 public:
  struct Config {
    double ewma_alpha = 0.25;      ///< weight of the newest gap
    std::uint32_t min_batch = 1;
    std::uint32_t max_batch = 16;
    double max_linger_s = 600.0;   ///< queueing-delay budget per batch
  };

  BatchTuner(Config config, std::uint32_t initial_batch);

  /// Observe one stage completion at virtual time now_s. Returns the new
  /// batch size when the decision changes it, nullopt otherwise.
  [[nodiscard]] std::optional<std::uint32_t> observe(double now_s);

  [[nodiscard]] std::uint32_t batch_size() const noexcept { return batch_; }
  [[nodiscard]] std::uint64_t decisions() const noexcept { return decisions_; }

 private:
  Config config_;
  std::uint32_t batch_;
  double last_s_ = -1.0;
  double ewma_gap_ = 0.0;
  bool have_gap_ = false;
  std::uint64_t decisions_ = 0;
};

/// Everything the campaign harvest reports about a server (plain data,
/// session-dump serializable). `enabled` distinguishes "ran without a
/// server" from "ran with an idle one".
struct ServerSnapshot {
  bool enabled = false;
  StreamStats fold;
  StreamStats design;
  std::uint32_t batch_size = 0;       ///< live (possibly tuned) size
  double speed_factor = 1.0;
  std::uint64_t tuner_decisions = 0;  ///< batch-size changes applied
};

class InferenceServer {
 public:
  struct Config {
    BatchPolicy policy;
    /// Fold dispatches: setup ~ weight residency + compilation, per-item
    /// ~ the calibrated AlphaFold inference stage.
    GpuCostModel fold_cost{.setup_s = 360.0, .per_item_s = 1800.0};
    /// Design (ProteinMPNN-class) dispatches: far lighter weights.
    GpuCostModel design_cost{.setup_s = 60.0, .per_item_s = 360.0};
    double speed_factor = 1.0;
    /// Enable the BatchTuner: the coordinator feeds fold completions to
    /// observe_completion() and the chosen size applies to later batches.
    bool adaptive = false;
    BatchTuner::Config tuner;
  };

  InferenceServer();  ///< default Config
  explicit InferenceServer(Config config);

  /// Fold request at virtual time now_s. With a cache, runs
  /// FoldCache::predict and accounts the GPU dispatch only on a miss; a
  /// hit is accounted as such. Thread-safe; the model call runs outside
  /// the server lock.
  [[nodiscard]] fold::Prediction fold(
      const fold::AlphaFold& folder,
      const std::shared_ptr<fold::FoldCache>& cache,
      const protein::Complex& complex,
      const protein::FitnessLandscape& landscape, common::Rng& rng,
      double now_s);

  /// Design request at virtual time now_s: accounts the dispatch, then
  /// runs `compute` (the generator call) unchanged on the caller thread.
  [[nodiscard]] std::vector<mpnn::ScoredSequence> design(
      const std::function<std::vector<mpnn::ScoredSequence>()>& compute,
      double now_s);

  /// Feed one fold-stage completion (virtual time) to the tuner. Returns
  /// the new batch size when the decision changed it; always nullopt when
  /// the server is not adaptive.
  [[nodiscard]] std::optional<std::uint32_t> observe_completion(double now_s);

  /// Slowest GPU generation serving the streams (min over the platform's
  /// NodeSpec::gpu_speed_factor); the campaign sets this from its
  /// configured pilots. Applies to subsequent dispatches only.
  void set_speed_factor(double factor);

  /// Accounting so far, with any open batches reported as if dispatched.
  [[nodiscard]] ServerSnapshot snapshot() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct Stream {
    StreamStats stats;
    std::uint32_t open = 0;     ///< requests in the open batch
    double open_since = 0.0;    ///< arrival of the open batch's first member
  };

  void dispatch(Stream& stream, const GpuCostModel& cost, double now_s);
  void close_batch(Stream& stream, const GpuCostModel& cost) const;
  void record_hit(Stream& stream);

  mutable std::mutex mutex_;
  Config config_;
  std::uint32_t batch_size_;  ///< live max batch (tuned when adaptive)
  double speed_factor_;
  Stream fold_;
  Stream design_;
  BatchTuner tuner_;
};

}  // namespace impress::infer

#include "infer/infer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace impress::infer {

double GpuCostModel::batch_latency_s(std::uint32_t n,
                                     double speed_factor) const {
  if (n == 0) return 0.0;
  return (setup_s + static_cast<double>(n) * per_item_s) / speed_factor;
}

double StreamStats::speedup() const noexcept {
  if (batched_gpu_s <= 0.0) return 1.0;
  return unbatched_gpu_s / batched_gpu_s;
}

BatchTuner::BatchTuner(Config config, std::uint32_t initial_batch)
    : config_(config),
      batch_(std::clamp(initial_batch, config.min_batch, config.max_batch)) {
  if (config_.min_batch == 0 || config_.min_batch > config_.max_batch)
    throw std::invalid_argument("BatchTuner: need 0 < min_batch <= max_batch");
  if (config_.ewma_alpha <= 0.0 || config_.ewma_alpha > 1.0)
    throw std::invalid_argument("BatchTuner: ewma_alpha must be in (0, 1]");
}

std::optional<std::uint32_t> BatchTuner::observe(double now_s) {
  if (last_s_ < 0.0) {
    last_s_ = now_s;
    return std::nullopt;
  }
  const double gap = std::max(0.0, now_s - last_s_);
  last_s_ = now_s;
  ewma_gap_ = have_gap_
                  ? config_.ewma_alpha * gap +
                        (1.0 - config_.ewma_alpha) * ewma_gap_
                  : gap;
  have_gap_ = true;
  // Simultaneous completions (gap -> 0) mean arrivals outpace any linger
  // budget: saturate at max_batch rather than divide by zero.
  const std::uint32_t want =
      ewma_gap_ <= 1e-9
          ? config_.max_batch
          : static_cast<std::uint32_t>(std::clamp(
                1.0 + std::floor(config_.max_linger_s / ewma_gap_),
                static_cast<double>(config_.min_batch),
                static_cast<double>(config_.max_batch)));
  if (want == batch_) return std::nullopt;
  batch_ = want;
  ++decisions_;
  return batch_;
}

InferenceServer::InferenceServer() : InferenceServer(Config{}) {}

InferenceServer::InferenceServer(Config config)
    : config_(config),
      batch_size_(config.policy.max_batch),
      speed_factor_(config.speed_factor),
      tuner_(config.tuner, config.policy.max_batch) {
  if (config_.policy.max_batch == 0)
    throw std::invalid_argument("InferenceServer: max_batch must be > 0");
  if (!(config_.speed_factor > 0.0))
    throw std::invalid_argument("InferenceServer: speed_factor must be > 0");
}

void InferenceServer::close_batch(Stream& stream,
                                  const GpuCostModel& cost) const {
  if (stream.open == 0) return;
  ++stream.stats.batches;
  stream.stats.max_batch = std::max(stream.stats.max_batch, stream.open);
  stream.stats.batched_gpu_s +=
      cost.batch_latency_s(stream.open, speed_factor_);
  stream.open = 0;
}

void InferenceServer::dispatch(Stream& stream, const GpuCostModel& cost,
                               double now_s) {
  std::lock_guard lock(mutex_);
  ++stream.stats.requests;
  stream.stats.unbatched_gpu_s += cost.batch_latency_s(1, speed_factor_);
  if (stream.open > 0 &&
      now_s - stream.open_since > config_.policy.max_linger_s)
    close_batch(stream, cost);
  if (stream.open == 0) stream.open_since = now_s;
  ++stream.open;
  if (stream.open >= batch_size_) close_batch(stream, cost);
}

void InferenceServer::record_hit(Stream& stream) {
  std::lock_guard lock(mutex_);
  ++stream.stats.requests;
  ++stream.stats.cache_hits;
}

fold::Prediction InferenceServer::fold(
    const fold::AlphaFold& folder,
    const std::shared_ptr<fold::FoldCache>& cache,
    const protein::Complex& complex,
    const protein::FitnessLandscape& landscape, common::Rng& rng,
    double now_s) {
  if (cache) {
    // The cache does the lookup, insert and counting, so campaigns with
    // and without a server agree on every cache statistic.
    bool missed = false;
    fold::Prediction prediction =
        cache->predict(folder, complex, landscape, rng, [&] {
          missed = true;
          dispatch(fold_, config_.fold_cost, now_s);
        });
    if (!missed) record_hit(fold_);
    return prediction;
  }
  dispatch(fold_, config_.fold_cost, now_s);
  return folder.predict(complex, landscape, rng);
}

std::vector<mpnn::ScoredSequence> InferenceServer::design(
    const std::function<std::vector<mpnn::ScoredSequence>()>& compute,
    double now_s) {
  dispatch(design_, config_.design_cost, now_s);
  return compute();
}

std::optional<std::uint32_t> InferenceServer::observe_completion(
    double now_s) {
  std::lock_guard lock(mutex_);
  if (!config_.adaptive) return std::nullopt;
  const auto chosen = tuner_.observe(now_s);
  if (chosen) batch_size_ = *chosen;
  return chosen;
}

void InferenceServer::set_speed_factor(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument(
        "InferenceServer::set_speed_factor: factor must be > 0");
  std::lock_guard lock(mutex_);
  speed_factor_ = factor;
}

ServerSnapshot InferenceServer::snapshot() const {
  std::lock_guard lock(mutex_);
  ServerSnapshot snap;
  snap.enabled = true;
  snap.fold = fold_.stats;
  snap.design = design_.stats;
  // Report open batches as if dispatched (the real server would flush
  // them at linger expiry) without mutating the live accounting.
  const auto flush = [this](StreamStats& stats, const Stream& stream,
                            const GpuCostModel& cost) {
    if (stream.open == 0) return;
    ++stats.batches;
    stats.max_batch = std::max(stats.max_batch, stream.open);
    stats.batched_gpu_s += cost.batch_latency_s(stream.open, speed_factor_);
  };
  flush(snap.fold, fold_, config_.fold_cost);
  flush(snap.design, design_, config_.design_cost);
  snap.batch_size = batch_size_;
  snap.speed_factor = speed_factor_;
  snap.tuner_decisions = tuner_.decisions();
  return snap;
}

}  // namespace impress::infer

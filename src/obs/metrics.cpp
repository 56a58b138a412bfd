#include "obs/metrics.hpp"

#include <algorithm>

namespace impress::obs {

namespace detail {

std::size_t stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return index;
}

}  // namespace detail

Histogram::Histogram(bool enabled, std::vector<double> bounds)
    : enabled_(enabled), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  stripes_.reserve(detail::kStripes);
  for (std::size_t i = 0; i < detail::kStripes; ++i)
    stripes_.push_back(std::make_unique<Stripe>(bounds_.size() + 1));
}

void Histogram::observe(double v) noexcept {
  if (!enabled_) return;
  std::size_t bucket = bounds_.size();  // +Inf
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  Stripe& s = *stripes_[detail::stripe_index()];
  s.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(s.sum, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& s : stripes_)
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] += s->buckets[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : stripes_)
    total += s->count.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const auto& s : stripes_)
    total += s->sum.load(std::memory_order_relaxed);
  return total;
}

void Histogram::preload(const std::vector<std::uint64_t>& buckets,
                        std::uint64_t count, double sum) noexcept {
  if (!enabled_) return;
  Stripe& s = *stripes_[0];
  const std::size_t n = std::min(buckets.size(), s.buckets.size());
  for (std::size_t i = 0; i < n; ++i)
    s.buckets[i].store(buckets[i], std::memory_order_relaxed);
  s.count.store(count, std::memory_order_relaxed);
  s.sum.store(sum, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_seconds_bounds() {
  return {0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0};
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

MetricsRegistry::MetricsRegistry(bool enabled) : enabled_(enabled) {}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>(enabled_);
  return slot.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>(enabled_);
  return slot.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<Histogram>(enabled_, std::move(bounds));
  return slot.get();
}

void MetricsRegistry::preload(const MetricsSnapshot& snap) {
  if (!enabled()) return;
  for (const auto& c : snap.counters) counter(c.name)->add(c.value);
  for (const auto& g : snap.gauges) gauge(g.name)->set(g.value);
  for (const auto& h : snap.histograms)
    histogram(h.name, h.bounds)->preload(h.buckets, h.count, h.sum);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.counters.push_back(CounterSample{name, c->value()});
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.gauges.push_back(GaugeSample{name, g->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.push_back(HistogramSample{name, h->bounds(),
                                             h->bucket_counts(), h->count(),
                                             h->sum()});
  }
  return out;  // std::map iteration => already sorted by name
}

}  // namespace impress::obs

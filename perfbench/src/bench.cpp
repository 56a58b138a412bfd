#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Samples::quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return v[lo] + (v[hi] - v[lo]) * (rank - std::floor(rank));
}

double Samples::median() const { return quantile(0.5); }

double Samples::sum() const {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double loglog_slope(double work_small, double wall_small, double work_large,
                    double wall_large) {
  return std::log(wall_large / wall_small) / std::log(work_large / work_small);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_seconds() {
  constexpr std::size_t kWords = std::size_t{1} << 20;  // 8 MiB
  // Built once and kept, so every call reads the same memory and the
  // probe adds a constant 8.5 MiB to peak RSS instead of a varying one.
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kWords);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (auto& word : t) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      word = x;
    }
    return t;
  }();
  static std::vector<std::uint64_t> keys(std::size_t{1} << 16);

  std::uint64_t acc = 0;
  const auto read_round = [&acc] {
    for (std::size_t i = 0; i < kWords; ++i)
      acc += table[(table[i] >> 11) & (kWords - 1)] ^ (acc >> 3);
  };
  // An untimed round first, so what the previous pass left in the caches
  // does not show in the timing.
  read_round();
  const auto start = Clock::now();
  read_round();
  read_round();
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = table[(i * 2654435761u) & (kWords - 1)] >> 5;
  std::sort(keys.begin(), keys.end());
  const double seconds = seconds_since(start);
  // Keep the result observable so the loops are not optimized away.
  volatile std::uint64_t sink = acc + keys[keys.size() / 2];
  (void)sink;
  return seconds;
}

void add_throughput(Report& report, double work, const Samples& wall,
                    const Samples& reference) {
  const double per_wall_s = work / wall.median();
  report.metric("ops_per_ref_s",
                per_wall_s * reference.median() / kReferenceNominalS, "1/s");
  report.metric("bench.ops_per_wall_s", per_wall_s, "1/s");
  report.metric("bench.reference_s", reference.median(), "s");
}

}  // namespace perfbench

#include "hpc/analytics.hpp"

#include <algorithm>
#include <map>

#include "common/stats.hpp"

namespace impress::hpc {

namespace {

struct RawTimes {
  double schedule = -1.0;
  double setup = -1.0;
  double start = -1.0;
  double stop = -1.0;
};

std::map<std::string, RawTimes> collect(
    std::span<const ProfileEvent> records) {
  std::map<std::string, RawTimes> out;
  for (const auto& e : records) {
    auto& r = out[e.entity];
    if (e.event == events::kSchedule && r.schedule < 0.0) r.schedule = e.time;
    else if (e.event == events::kExecSetupStart && r.setup < 0.0) r.setup = e.time;
    else if (e.event == events::kExecStart && r.start < 0.0) r.start = e.time;
    else if (e.event == events::kExecStop && r.stop < 0.0) r.stop = e.time;
  }
  return out;
}

}  // namespace

std::vector<TaskTiming> task_timings(std::span<const ProfileEvent> records) {
  std::vector<TaskTiming> out;
  for (const auto& [uid, r] : collect(records)) {
    if (r.schedule < 0.0 || r.setup < 0.0 || r.start < 0.0 || r.stop < 0.0)
      continue;
    out.push_back(TaskTiming{.uid = uid,
                             .wait = r.setup - r.schedule,
                             .setup = r.start - r.setup,
                             .run = r.stop - r.start});
  }
  return out;
}

TimingSummary summarize_timings(std::span<const ProfileEvent> records) {
  const auto timings = task_timings(records);
  TimingSummary s;
  s.tasks = timings.size();
  if (timings.empty()) return s;
  std::vector<double> waits, setups, runs;
  for (const auto& t : timings) {
    waits.push_back(t.wait);
    setups.push_back(t.setup);
    runs.push_back(t.run);
  }
  s.mean_wait = common::mean(waits);
  s.p95_wait = common::percentile(waits, 95.0);
  s.mean_setup = common::mean(setups);
  s.mean_run = common::mean(runs);
  const double overhead = s.mean_wait + s.mean_setup;
  const double total = overhead + s.mean_run;
  if (total > 0.0) s.overhead_fraction = overhead / total;
  return s;
}

std::vector<double> concurrency_series(std::span<const ProfileEvent> records,
                                       std::size_t bins, double t_end) {
  std::vector<double> out(bins, 0.0);
  if (bins == 0) return out;
  const auto raw = collect(records);
  if (t_end <= 0.0)
    for (const auto& [uid, r] : raw) t_end = std::max(t_end, r.stop);
  if (t_end <= 0.0) return out;
  const double bin_w = t_end / static_cast<double>(bins);
  for (const auto& [uid, r] : raw) {
    if (r.start < 0.0) continue;
    const double stop = r.stop < 0.0 ? t_end : r.stop;
    for (std::size_t b = 0; b < bins; ++b) {
      const double b0 = static_cast<double>(b) * bin_w;
      const double b1 = b0 + bin_w;
      const double overlap =
          std::max(0.0, std::min(stop, b1) - std::max(r.start, b0));
      out[b] += overlap / bin_w;
    }
  }
  return out;
}

RetrySummary summarize_retries(std::span<const ProfileEvent> records) {
  RetrySummary s;
  for (const auto& e : records) {
    if (e.event == events::kRetry) ++s.retries;
    else if (e.event == events::kTimeout) ++s.timeouts;
    else if (e.event == events::kRequeue) ++s.requeues;
    else if (e.event == events::kPilotFailed) ++s.pilot_failures;
  }
  for (const auto& [uid, attempts] : attempt_counts(records)) {
    if (attempts > 1) ++s.tasks_retried;
    s.max_attempts = std::max(s.max_attempts, attempts);
  }
  return s;
}

std::map<std::string, int> attempt_counts(
    std::span<const ProfileEvent> records) {
  std::map<std::string, int> out;
  for (const auto& e : records)
    if (e.event == events::kSubmit) ++out[e.entity];
  return out;
}

std::size_t peak_concurrency(std::span<const ProfileEvent> records) {
  std::vector<std::pair<double, int>> edges;
  for (const auto& [uid, r] : collect(records)) {
    if (r.start < 0.0 || r.stop < 0.0) continue;
    edges.emplace_back(r.start, +1);
    edges.emplace_back(r.stop, -1);
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;  // close before open at equal times
  });
  int cur = 0;
  int peak = 0;
  for (const auto& [t, d] : edges) {
    cur += d;
    peak = std::max(peak, cur);
  }
  return static_cast<std::size_t>(peak);
}

}  // namespace impress::hpc

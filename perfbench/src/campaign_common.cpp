#include "campaign_common.hpp"

#include "core/report.hpp"
#include "core/session_dump.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace names = impress::obs::names;
using impress::core::CampaignResult;
using impress::obs::MetricsSnapshot;

std::uint64_t campaign_tasks(const CampaignResult& r) {
  return r.generator_tasks + r.refine_tasks + r.fold_tasks;
}

void check_campaign(Report& report, const CampaignResult& r,
                    const MetricsSnapshot& metrics, const std::string& label) {
  report.check(r.failed_tasks == 0,
               label + ": " + std::to_string(r.failed_tasks) +
                   " campaign tasks failed");
  report.check(campaign_tasks(r) > 0, label + ": no task ran");
  if (metrics.empty()) return;
  const std::uint64_t submitted = metrics.counter(names::kTasksSubmitted);
  const std::uint64_t done = metrics.counter(names::kTasksDone);
  report.check(done == submitted, label + ": tasks_done " +
                                      std::to_string(done) +
                                      " != tasks_submitted " +
                                      std::to_string(submitted));
}

void add_science_metrics(Report& report, const CampaignResult& r,
                         int cycles) {
  report.metric("science.makespan_h", r.makespan_h, "h");
  report.metric("science.cpu_util", r.utilization.cpu_active, "fraction");
  report.metric("science.gpu_util", r.utilization.gpu_active, "fraction");
  report.metric("science.ptm_final_median",
                impress::core::median_at_cycle(
                    r, impress::core::Metric::kPtm, cycles, cycles),
                "pTM");
}

void add_layer_counters(Report& report, const CampaignResult& r,
                        const MetricsSnapshot& metrics) {
  const auto counter = [&](const char* name, std::string_view key) {
    report.metric(name, static_cast<double>(metrics.counter(key)), "count");
  };
  counter("core.pipelines_started", names::kPipelinesStarted);
  counter("core.subpipelines_spawned", names::kSubpipelinesSpawned);
  counter("core.pipeline_messages", names::kPipelineMessages);
  counter("core.completion_messages", names::kCompletionMessages);
  counter("rp.tasks_submitted", names::kTasksSubmitted);
  counter("rp.tasks_done", names::kTasksDone);
  counter("rp.tasks_failed", names::kTasksFailed);
  counter("rp.tasks_retried", names::kTasksRetried);
  counter("rp.scheduler_enqueues", names::kSchedulerEnqueues);
  counter("rp.scheduler_placements", names::kSchedulerPlacements);
  counter("rp.scheduler_ticks", names::kSchedulerTicks);
  const double placements =
      static_cast<double>(metrics.counter(names::kSchedulerPlacements));
  report.metric("rp.ticks_per_placement",
                placements > 0.0
                    ? static_cast<double>(
                          metrics.counter(names::kSchedulerTicks)) /
                          placements
                    : 0.0,
                "ratio");

  report.metric("fold.tasks", static_cast<double>(r.fold_tasks), "count");
  report.metric("fold.retries", static_cast<double>(r.fold_retries), "count");
  // Cache lookups from the registry: shard results lose the cache summary
  // in the session-dump round trip, the counters survive it.
  const auto hits = static_cast<double>(metrics.counter(names::kFoldCacheHits));
  const auto misses =
      static_cast<double>(metrics.counter(names::kFoldCacheMisses));
  report.metric("fold.cache_hits", hits, "count");
  report.metric("fold.cache_misses", misses, "count");
  report.metric("fold.cache_hit_ratio",
                hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
}

std::string dump_of(const CampaignResult& r) {
  return impress::core::to_json(r).dump();
}

}  // namespace perfbench

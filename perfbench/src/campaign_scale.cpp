// campaign_scale: one IM-RP campaign on one Amarel node at 280 and then
// 1120 targets, no checkpoints. The coordinator's pool median and the
// scheduler's backfill probes grow faster than the target count, so this
// is the workload on which campaign-core optimizations show, through the
// throughput at 1120 targets and the log-log scaling exponent.

#include <memory>
#include <vector>

#include "bench.hpp"
#include "campaign_common.hpp"
#include "core/campaign.hpp"
#include "obs/obs.hpp"
#include "protein/datasets.hpp"
#include "timed_generator.hpp"

namespace perfbench {
namespace {

using namespace impress;

struct Inputs {
  std::vector<protein::DesignTarget> small;
  std::vector<protein::DesignTarget> large;
  core::CampaignConfig config;
};

Inputs set_up(const Options& opt) {
  Inputs in;
  in.small = protein::pdz_benchmark(opt.tiny ? 16 : 280);
  in.large = protein::pdz_benchmark(opt.tiny ? 64 : 1120);
  in.config = core::im_rp_campaign(opt.seed);
  // The registry supplies the task accounting the output checks compare.
  in.config.session.enable_metrics = true;
  return in;
}

struct Pass {
  core::CampaignResult small;
  core::CampaignResult large;
  double wall_small = 0.0;
  double wall_large = 0.0;
  std::size_t span_small = 0;  ///< core.run span indices (traced passes)
  std::size_t span_large = 0;
};

/// Run both sizes. With a recorder, each Campaign::run is a "core.run"
/// span (request id = target count) and every generate() call an
/// "mpnn.generate" span beneath it.
Pass run_pass(const Inputs& in, SpanRecorder* spans) {
  core::CampaignConfig config = in.config;
  if (spans != nullptr)
    config.generator = std::make_shared<TimedGenerator>(
        std::make_shared<core::MpnnGenerator>(config.sampler), *spans);
  Pass p;
  const auto run = [&](const std::vector<protein::DesignTarget>& targets,
                       core::CampaignResult& result, double& wall,
                       std::size_t& span) {
    const auto start = Clock::now();
    if (spans != nullptr) span = spans->open("core.run", targets.size());
    result = core::Campaign(config).run(targets);
    if (spans != nullptr) spans->close(span);
    wall = seconds_since(start);
  };
  run(in.small, p.small, p.wall_small, p.span_small);
  run(in.large, p.large, p.wall_large, p.span_large);
  return p;
}

}  // namespace

void run_campaign_scale(const Options& opt, Report& report) {
  Samples setup;
  Samples wall_large;
  Samples slope;  ///< per-pass: both sizes run back to back
  Samples reference;  ///< machine-speed probe before every pass
  double rss_mb = 0.0;  ///< after kRssPasses passes
  Samples wall_traced;
  Samples wall_untraced;
  std::string dump_small;
  std::string dump_large;
  Pass last;

  const auto check_pass = [&](const Pass& p, const char* label) {
    check_campaign(report, p.small, p.small.metrics,
                   std::string(label) + " small");
    check_campaign(report, p.large, p.large.metrics,
                   std::string(label) + " large");
    report.attempted += campaign_tasks(p.small) + campaign_tasks(p.large);
    report.failed += p.small.failed_tasks + p.large.failed_tasks;
    // The same seed must give the same campaign on every pass, traced or
    // not (the decorator forwards unchanged).
    const std::string ds = dump_of(p.small);
    const std::string dl = dump_of(p.large);
    if (dump_small.empty()) {
      dump_small = ds;
      dump_large = dl;
    }
    report.check(ds == dump_small && dl == dump_large,
                 std::string(label) + " result differs from the first pass");
  };

  const auto start = Clock::now();
  Inputs in;
  while (wall_large.size() == 0 || seconds_since(start) < opt.seconds) {
    const auto t = Clock::now();
    in = set_up(opt);
    setup.add(seconds_since(t));

    reference.add(reference_seconds());
    Pass p = run_pass(in, nullptr);
    wall_large.add(p.wall_large);
    if (wall_large.size() == kRssPasses) rss_mb = peak_rss_mb();
    slope.add(loglog_slope(static_cast<double>(campaign_tasks(p.small)),
                           p.wall_small,
                           static_cast<double>(campaign_tasks(p.large)),
                           p.wall_large));
    wall_untraced.add(p.wall_small + p.wall_large);
    check_pass(p, "untraced");
    if (opt.trace) {
      report.spans.clear();
      p = run_pass(in, &report.spans);
      wall_traced.add(p.wall_small + p.wall_large);
      check_pass(p, "traced");
    }
    last = std::move(p);
  }
  while (setup.size() < kMinSetups) {
    const auto t = Clock::now();
    in = set_up(opt);
    setup.add(seconds_since(t));
  }

  const core::CampaignResult& big = last.large;
  add_science_metrics(report, big, in.config.protocol.cycles);
  report.metric("bench.failed_frac", report.failed_share(), "fraction");
  add_throughput(report, static_cast<double>(campaign_tasks(big)), wall_large,
                 reference);
  if (!opt.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("peak_rss_mb", rss_mb > 0.0 ? rss_mb : peak_rss_mb(), "MB");
    report.metric("scaling_exponent", slope.median(), "1");
    return;
  }

  // Per-layer figures from the last traced pass.
  const SpanRecorder& spans = report.spans;
  const auto placements = [](const core::CampaignResult& r) {
    const auto n = r.metrics.counter(obs::names::kSchedulerPlacements);
    return static_cast<double>(n > 0 ? n : 1);
  };
  const std::uint64_t large_req = in.large.size();
  const Samples generate{spans.durations_ns("mpnn.generate", large_req)};
  report.metric("core.run_s", last.wall_large, "s");
  report.metric("core.self_s", spans.self_s(last.span_large), "s");
  report.metric("core.self_ns_per_placement_small",
                spans.self_s(last.span_small) * 1e9 / placements(last.small),
                "ns");
  report.metric("core.self_ns_per_placement_large",
                spans.self_s(last.span_large) * 1e9 / placements(big), "ns");
  add_layer_counters(report, big, big.metrics);
  report.metric("mpnn.generate_calls", static_cast<double>(generate.size()),
                "count");
  report.metric("mpnn.generate_s", generate.sum() * 1e-9, "s");
  report.metric("mpnn.generate_ns_p50", generate.quantile(0.5), "ns");
  report.metric("mpnn.generate_ns_p99", generate.quantile(0.99), "ns");
  report.metric("bench.trace_overhead_frac",
                wall_traced.median() / wall_untraced.median() - 1.0,
                "fraction");
}

}  // namespace perfbench

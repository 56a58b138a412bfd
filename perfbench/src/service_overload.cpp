// service_overload: the campaign service front door under ~25x overload,
// in the tenant-scaling setup of bench/bench_service.cpp: 1000 tenants
// with weights 1/2/4, open-loop Poisson arrivals at 8/s per tenant, 3000
// virtual seconds on a 100 ms pump grid against the SimulatedBackend.
// Arrivals follow a virtual-time schedule, so the load generator's own
// lateness cannot delay them. It exercises admission, DRR and backpressure and
// touches no campaign code: the bypass case for campaign optimizations.

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "service/service.hpp"
#include "service/sim_backend.hpp"

namespace perfbench {
namespace {

using namespace impress;

constexpr double kOfferedPerTenant = 8.0;  // submissions/s
constexpr double kTickS = 0.1;
/// One submit call in this many is timed on its own for the percentiles;
/// the rest are timed only as a per-tick batch.
constexpr std::uint64_t kSubmitSampleEvery = 64;

struct Size {
  std::size_t tenants = 0;
  double virtual_s = 0.0;
};

/// The set-up a run repeats: service, backend and arrival streams.
struct Replay {
  Size size;
  std::unique_ptr<service::SimulatedBackend> backend;
  std::unique_ptr<service::CampaignService> svc;
  std::vector<common::Rng> streams;
  std::vector<double> next_s;
};

std::unique_ptr<Replay> set_up(std::uint64_t seed, Size size) {
  auto r = std::make_unique<Replay>();
  r->size = size;
  const std::size_t n = size.tenants;
  const std::size_t slots = 8 * n;

  service::ServiceConfig cfg;
  cfg.tenants.reserve(n);
  const std::uint32_t weights[] = {1, 2, 4};
  for (std::size_t i = 0; i < n; ++i) {
    service::TenantConfig t;
    t.name = "tenant-" + std::to_string(i);
    t.weight = weights[i % 3];
    t.max_open = 64;
    t.initial_rate = 4.0;
    t.burst_s = 2.0;
    cfg.tenants.push_back(std::move(t));
  }
  cfg.global_max_open = 64 * n;
  cfg.max_dispatched = 2 * slots;
  cfg.max_dispatch_per_tick = 4096;
  cfg.shed_age_ns = 45'000'000'000ULL;
  cfg.backpressure_enabled = true;
  cfg.backpressure.interval_s = 4.0;
  cfg.backpressure.latency_ref_s = 30.0;

  service::SimulatedBackendConfig bcfg;
  bcfg.slots = slots;
  bcfg.duration_scale = 1e-3;
  bcfg.reserve_events = 3 * cfg.global_max_open + 64;
  r->backend = std::make_unique<service::SimulatedBackend>(bcfg);
  r->svc = std::make_unique<service::CampaignService>(cfg, *r->backend);
  r->backend->attach(*r->svc);

  common::Rng root(seed, /*stream=*/0x42454E43485F5356ULL);
  r->streams.reserve(n);
  r->next_s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    r->streams.push_back(root.fork(static_cast<std::uint64_t>(i)));
    r->next_s.push_back(r->streams.back().exponential(1.0 / kOfferedPerTenant));
  }
  return r;
}

struct Outcome {
  double wall = 0.0;
  std::uint64_t submits = 0;
  service::ServiceReport report;
  Samples submit_ns;  ///< sampled single submit calls (traced)
};

Outcome replay(Replay& r, std::uint64_t seed, SpanRecorder* spans) {
  Outcome out;
  std::uint64_t payload_seed = seed;
  const auto ticks = static_cast<std::size_t>(r.size.virtual_s / kTickS);
  const auto start = Clock::now();
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    const double now_s = static_cast<double>(tick) * kTickS;
    const auto now_ns = static_cast<std::uint64_t>(now_s * 1e9);
    {
      ScopedSpan span(spans, "service.backend_advance", tick);
      r.backend->advance_to(now_ns);
    }
    {
      ScopedSpan span(spans, "service.submit_batch", tick);
      for (std::size_t t = 0; t < r.size.tenants; ++t) {
        while (r.next_s[t] <= now_s) {
          const auto at_ns = static_cast<std::uint64_t>(r.next_s[t] * 1e9);
          payload_seed = common::splitmix64(payload_seed);
          const bool sampled =
              spans != nullptr && out.submits % kSubmitSampleEvery == 0;
          const auto t0 = sampled ? Clock::now() : Clock::time_point{};
          (void)r.svc->submit(static_cast<service::TenantId>(t), payload_seed,
                              /*cost=*/1, at_ns);
          if (sampled)
            out.submit_ns.add(
                std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count());
          ++out.submits;
          r.next_s[t] += r.streams[t].exponential(1.0 / kOfferedPerTenant);
        }
      }
    }
    ScopedSpan span(spans, "service.tick", tick);
    r.svc->tick(now_ns);
  }
  out.wall = seconds_since(start);
  out.report = r.svc->report();
  return out;
}

/// Every admitted submission ends completed, shed, queued or in flight,
/// and every submission is admitted or rejected, per tenant and in total.
void check_conservation(Report& report, const Outcome& o,
                        const std::string& label) {
  const service::ServiceReport& s = o.report;
  std::uint64_t lost = 0;
  const auto expect = [&](std::uint64_t lhs, std::uint64_t rhs,
                          const std::string& what) {
    report.check(lhs == rhs, label + ": " + what + " (" + std::to_string(lhs) +
                                 " != " + std::to_string(rhs) + ")");
    lost += lhs > rhs ? lhs - rhs : rhs - lhs;
  };
  expect(s.submitted, o.submits, "submitted != submit calls");
  expect(s.submitted, s.admitted + s.rejected,
         "submitted != admitted + rejected");
  expect(s.admitted, s.completed + s.shed + s.queued_now + s.in_flight_now,
         "admitted != completed + shed + queued + in flight");
  expect(s.dispatched, s.completed + s.in_flight_now,
         "dispatched != completed + in flight");
  for (const service::TenantReport& t : s.tenants)
    expect(t.submitted,
           t.admitted + t.rejected_rate + t.rejected_quota + t.rejected_capacity,
           t.name + " submitted != admitted + rejected");
  report.attempted += o.submits;
  report.failed += lost;
}

}  // namespace

void run_service_overload(const Options& opt, Report& report) {
  const Size full = opt.tiny ? Size{100, 300.0} : Size{1000, 3000.0};
  const Size small = opt.tiny ? Size{25, 300.0} : Size{250, 3000.0};

  Samples setup;
  Samples wall_full;
  Samples slope;  ///< per-pass: both sizes run back to back
  Samples reference;  ///< machine-speed probe before every pass
  double rss_mb = 0.0;  ///< after kRssPasses passes
  Samples wall_traced;
  std::string print_full;
  Outcome last;

  const auto start = Clock::now();
  while (wall_full.size() == 0 || seconds_since(start) < opt.seconds) {
    double wall_small = 0.0;
    double submits_small = 0.0;
    reference.add(reference_seconds());
    for (const Size size : {small, full}) {
      const auto t = Clock::now();
      auto r = set_up(opt.seed, size);
      if (size.tenants == full.tenants) setup.add(seconds_since(t));
      Outcome o = replay(*r, opt.seed, nullptr);
      check_conservation(report, o, "untraced");
      if (size.tenants == small.tenants) {
        wall_small = o.wall;
        submits_small = static_cast<double>(o.submits);
        continue;
      }
      wall_full.add(o.wall);
      if (wall_full.size() == kRssPasses) rss_mb = peak_rss_mb();
      slope.add(loglog_slope(submits_small, wall_small,
                             static_cast<double>(o.submits), o.wall));
      const std::string p = service::render(o.report);
      if (print_full.empty()) print_full = p;
      report.check(p == print_full,
                   "untraced: service report differs from the first pass");
      last = std::move(o);
    }
    if (!opt.trace) continue;

    report.spans.clear();
    auto r = set_up(opt.seed, full);
    Outcome o = replay(*r, opt.seed, &report.spans);
    check_conservation(report, o, "traced");
    wall_traced.add(o.wall);
    report.check(service::render(o.report) == print_full,
                 "traced: service report differs from the untraced run");
    last = std::move(o);
  }

  while (setup.size() < kMinSetups) {
    const auto t = Clock::now();
    (void)set_up(opt.seed, full);
    setup.add(seconds_since(t));
  }

  const service::ServiceReport& s = last.report;
  report.metric("service.first_result_p50_s",
                static_cast<double>(s.first_result_p50_ns) * 1e-9, "s");
  report.metric("service.first_result_p99_s",
                static_cast<double>(s.first_result_p99_ns) * 1e-9, "s");
  report.metric("service.fairness_jain", s.fairness_jain, "index");
  report.metric("service.goodput_per_s",
                static_cast<double>(s.completed) / full.virtual_s, "1/s");
  report.metric("bench.failed_frac",
                static_cast<double>(s.rejected + s.shed) /
                    static_cast<double>(s.submitted > 0 ? s.submitted : 1),
                "fraction");
  add_throughput(report, static_cast<double>(last.submits), wall_full,
                 reference);
  if (!opt.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("peak_rss_mb", rss_mb > 0.0 ? rss_mb : peak_rss_mb(), "MB");
    report.metric("scaling_exponent", slope.median(), "1");
    return;
  }

  const SpanRecorder& spans = report.spans;
  const Samples tick_ns{spans.durations_ns("service.tick")};
  report.metric("service.submit_ns_p50", last.submit_ns.quantile(0.5), "ns");
  report.metric("service.submit_ns_p99", last.submit_ns.quantile(0.99), "ns");
  report.metric("service.tick_ns_p50", tick_ns.quantile(0.5), "ns");
  report.metric("service.tick_ns_p99", tick_ns.quantile(0.99), "ns");
  report.metric("service.tick_s", tick_ns.sum() * 1e-9, "s");
  report.metric("service.backend_advance_s",
                spans.total_s("service.backend_advance"), "s");
  std::uint64_t rejected_rate = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_capacity = 0;
  for (const service::TenantReport& t : s.tenants) {
    rejected_rate += t.rejected_rate;
    rejected_quota += t.rejected_quota;
    rejected_capacity += t.rejected_capacity;
  }
  const auto count = [&](const char* name, std::uint64_t v) {
    report.metric(name, static_cast<double>(v), "count");
  };
  count("service.admitted", s.admitted);
  count("service.rejected_rate", rejected_rate);
  count("service.rejected_quota", rejected_quota);
  count("service.rejected_capacity", rejected_capacity);
  count("service.shed", s.shed);
  count("service.dispatched", s.dispatched);
  count("service.completed", s.completed);
  report.metric("service.admit_ratio",
                static_cast<double>(s.admitted) /
                    static_cast<double>(s.submitted > 0 ? s.submitted : 1),
                "ratio");
  count("service.pool_high_water", s.pool.high_water);
  report.metric("bench.trace_overhead_frac",
                wall_traced.median() / wall_full.median() - 1.0, "fraction");
}

}  // namespace perfbench

// bench_service: multi-tenant campaign-service baseline
// (BENCH_service.json). Self-timed, holding
//   * a seeded closed-loop tenant-scaling study (1/10/100/1000 tenants)
//     driven in virtual time against the SimulatedBackend: sustained
//     campaigns/sec, p50/p99/p999 submit-to-first-result latency, Jain
//     fairness and rejected/shed counts under saturating offered load
//     with PCC backpressure adapting per-tenant admission rates;
//   * a wall-clock hot-path microbench: ns per admitted submission on
//     the pooled allocation-free path vs a deliberately naive reference
//     (string-keyed std::map tenants, one `new` per request, big lock).
//
// CLI, report layout and --check live in bench/harness.hpp. Gates: the
// naive/pooled ratios (1 and 4 threads), 10-tenant fairness and per-slot
// goodput >= 0.8x baseline; pooled submit >= 0.5 Mops/s absolute. Ratios
// and the virtual-time study are what stay stable across machines, not
// raw ns.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "service/service.hpp"
#include "service/sim_backend.hpp"

using namespace impress;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- tenant-scaling study (deterministic virtual time) -------------------

struct ScalingResult {
  std::size_t tenants = 0;
  std::size_t slots = 0;
  double virtual_s = 0.0;
  double offered_per_tenant = 0.0;
  service::ServiceReport report;
  double campaigns_per_s = 0.0;
  double mean_admission_rate = 0.0;
  double wall_s = 0.0;
};

/// Seeded open-loop load generator: every tenant offers Poisson arrivals
/// at `offered_per_tenant`/s (well above fair capacity) for `virtual_s`
/// virtual seconds; the pump ticks on a 100 ms grid and the simulated
/// backend executes duration-compressed campaigns on a fixed-width
/// fleet. Bit-deterministic in `seed`.
ScalingResult run_tenant_scaling(std::size_t n_tenants, double virtual_s,
                                 std::uint64_t seed) {
  constexpr double kOffered = 8.0;       // submissions/s per tenant
  constexpr double kTickS = 0.1;         // pump grid
  constexpr double kScale = 1e-3;        // campaign duration compression
  const std::size_t slots = 8 * n_tenants;

  service::ServiceConfig cfg;
  cfg.tenants.reserve(n_tenants);
  const std::uint32_t weights[] = {1, 2, 4};
  for (std::size_t i = 0; i < n_tenants; ++i) {
    service::TenantConfig t;
    t.name = "tenant-" + std::to_string(i);
    t.tier = service::Tier::kStandard;
    t.weight = weights[i % 3];
    t.max_open = 64;
    t.initial_rate = 4.0;
    t.burst_s = 2.0;
    cfg.tenants.push_back(std::move(t));
  }
  cfg.global_max_open = 64 * n_tenants;
  cfg.max_dispatched = 2 * slots;
  cfg.max_dispatch_per_tick = 4096;
  cfg.shed_age_ns = 45'000'000'000ULL;  // 45 virtual s
  cfg.backpressure_enabled = true;
  cfg.backpressure.interval_s = 4.0;
  cfg.backpressure.latency_ref_s = 30.0;  // compressed-campaign scale

  service::SimulatedBackendConfig bcfg;
  bcfg.slots = slots;
  bcfg.duration_scale = kScale;
  bcfg.reserve_events = 3 * cfg.global_max_open + 64;
  service::SimulatedBackend backend(bcfg);
  service::CampaignService svc(cfg, backend);
  backend.attach(svc);

  // Per-tenant exponential interarrival streams, forked from one seed.
  common::Rng root(seed, /*stream=*/0x42454E43485F5356ULL);
  std::vector<common::Rng> streams;
  std::vector<double> next_s;
  streams.reserve(n_tenants);
  next_s.reserve(n_tenants);
  for (std::size_t i = 0; i < n_tenants; ++i) {
    streams.push_back(root.fork(static_cast<std::uint64_t>(i)));
    next_s.push_back(streams.back().exponential(1.0 / kOffered));
  }

  std::uint64_t payload_seed = seed;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto ticks = static_cast<std::size_t>(virtual_s / kTickS);
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    const double now_s = static_cast<double>(tick) * kTickS;
    const auto now_ns = static_cast<std::uint64_t>(now_s * 1e9);
    backend.advance_to(now_ns);
    for (std::size_t t = 0; t < n_tenants; ++t) {
      while (next_s[t] <= now_s) {
        const auto at_ns = static_cast<std::uint64_t>(next_s[t] * 1e9);
        payload_seed = common::splitmix64(payload_seed);
        (void)svc.submit(static_cast<service::TenantId>(t), payload_seed,
                         /*cost=*/1, at_ns);
        next_s[t] += streams[t].exponential(1.0 / kOffered);
      }
    }
    svc.tick(now_ns);
  }

  ScalingResult r;
  r.tenants = n_tenants;
  r.slots = slots;
  r.virtual_s = virtual_s;
  r.offered_per_tenant = kOffered;
  r.report = svc.report();
  r.campaigns_per_s =
      static_cast<double>(r.report.completed) / virtual_s;
  double rate_sum = 0.0;
  for (std::size_t t = 0; t < n_tenants; ++t)
    rate_sum += svc.admission_rate(static_cast<service::TenantId>(t));
  r.mean_admission_rate = rate_sum / static_cast<double>(n_tenants);
  r.wall_s = seconds_since(wall_start);
  return r;
}

// --- hot-path microbench (wall clock) ------------------------------------

/// The deliberately naive front door the pooled path is measured against:
/// tenants keyed by freshly-built std::string names in a std::map, one
/// heap-allocated record per request, one big mutex — exactly the churn
/// impress_lint's hot-path rules exist to keep out of src/service.
class NaiveService {
 public:
  struct Record {
    std::string tenant;  ///< owner keyed by name, not an interned id
    std::string uid;     ///< per-request uid string (exceeds SSO)
    std::uint64_t seq;
    std::uint64_t seed;
    std::uint64_t submit_ns;
  };

  explicit NaiveService(std::size_t n_tenants) {
    for (std::size_t i = 0; i < n_tenants; ++i) {
      Tenant t;
      t.tokens = 1e18;
      tenants_["tenant-" + std::to_string(i)] = t;
    }
  }
  ~NaiveService() { pump(); }

  bool submit(std::size_t tenant_idx, std::uint64_t seed,
              std::uint64_t now_ns) {
    // Per-request key + uid construction and a shared_ptr record (the
    // runtime's own TaskPtr idiom): the anti-pattern under test.
    std::string key = "tenant-" + std::to_string(tenant_idx);
    const std::uint64_t seq = seq_.fetch_add(1);
    auto rec = std::make_shared<Record>();
    rec->uid = "submission." + std::to_string(seq);
    rec->seq = seq;
    rec->seed = seed;
    rec->submit_ns = now_ns;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(key);
    if (it == tenants_.end()) return false;
    if (it->second.tokens < 1.0) return false;
    it->second.tokens -= 1.0;
    rec->tenant = std::move(key);
    queue_.push_back(std::move(rec));
    return true;
  }

  std::size_t pump() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = queue_.size();
    queue_.clear();
    return n;
  }

 private:
  struct Tenant {
    double tokens = 0.0;
  };
  std::mutex mutex_;
  std::map<std::string, Tenant> tenants_;
  std::deque<std::shared_ptr<Record>> queue_;
  std::atomic<std::uint64_t> seq_{0};
};

struct HotPathResult {
  double pooled_ns_per_op = 0.0;
  double pooled_mops = 0.0;
  double naive_ns_per_op = 0.0;
  double naive_mops = 0.0;
  double naive_over_pooled = 0.0;
  std::uint64_t pooled_admitted = 0;
  std::size_t pool_high_water = 0;
  // Contended variant: kThreads producer threads vs one pump thread —
  // what a multi-tenant front door actually faces.
  double pooled_mt_ns_per_op = 0.0;
  double pooled_mt_mops = 0.0;
  double naive_mt_ns_per_op = 0.0;
  double naive_mt_mops = 0.0;
  double naive_over_pooled_mt = 0.0;
};

HotPathResult run_hot_path(std::size_t total_ops) {
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kBatch = 4096;

  HotPathResult r;
  // --- pooled path: the real service, backpressure off, caps wide open.
  {
    service::ServiceConfig cfg;
    for (std::size_t i = 0; i < kTenants; ++i) {
      service::TenantConfig t;
      t.name = "tenant-" + std::to_string(i);
      t.max_open = 4096;
      t.initial_rate = 1e9;
      t.burst_s = 1.0;
      cfg.tenants.push_back(std::move(t));
    }
    cfg.global_max_open = 4 * 4096;
    cfg.max_dispatched = 1 << 20;
    cfg.max_dispatch_per_tick = 2 * kBatch;
    cfg.backpressure_enabled = false;

    service::SimulatedBackendConfig bcfg;
    bcfg.slots = 4096;
    bcfg.duration_scale = 1e-12;  // near-instant completions
    bcfg.reserve_events = 3 * cfg.global_max_open + 64;
    service::SimulatedBackend backend(bcfg);
    service::CampaignService svc(cfg, backend);
    backend.attach(svc);

    std::uint64_t now_ns = 1;
    std::uint64_t admitted = 0;
    double submit_s = 0.0;
    std::uint64_t seed = 0x5EEDULL;
    for (std::size_t done = 0; done < total_ops; done += kBatch) {
      const auto batch_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        seed = common::splitmix64(seed);
        now_ns += 1'000'000;  // 1 ms virtual between submissions
        const auto res = svc.submit(
            static_cast<service::TenantId>(i % kTenants), seed, 1, now_ns);
        admitted += res.admitted() ? 1 : 0;
      }
      submit_s += seconds_since(batch_start);
      // Pump + recycle outside the timed region: the claim under test is
      // the submit path itself.
      svc.tick(now_ns);
      backend.advance_to(now_ns + 1'000'000);
    }
    r.pooled_ns_per_op =
        submit_s * 1e9 / static_cast<double>(total_ops);
    r.pooled_mops = static_cast<double>(total_ops) / submit_s / 1e6;
    r.pooled_admitted = admitted;
    r.pool_high_water = svc.report().pool.high_water;
  }

  // --- naive reference, same shape and batch cadence.
  {
    NaiveService naive(kTenants);
    std::uint64_t now_ns = 1;
    double submit_s = 0.0;
    std::uint64_t seed = 0x5EEDULL;
    for (std::size_t done = 0; done < total_ops; done += kBatch) {
      const auto batch_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        seed = common::splitmix64(seed);
        now_ns += 1'000'000;
        (void)naive.submit(i % kTenants, seed, now_ns);
      }
      submit_s += seconds_since(batch_start);
      (void)naive.pump();
    }
    r.naive_ns_per_op = submit_s * 1e9 / static_cast<double>(total_ops);
    r.naive_mops = static_cast<double>(total_ops) / submit_s / 1e6;
  }

  r.naive_over_pooled = r.naive_ns_per_op / r.pooled_ns_per_op;

  // --- contended variant: kThreads producers, one pump/drain thread.
  constexpr std::size_t kThreads = 4;
  const std::size_t per_thread = total_ops / kThreads;
  {
    service::ServiceConfig cfg;
    for (std::size_t i = 0; i < kThreads; ++i) {
      service::TenantConfig t;
      t.name = "tenant-" + std::to_string(i);
      t.max_open = 8192;
      t.initial_rate = 1e9;
      t.burst_s = 1.0;
      cfg.tenants.push_back(std::move(t));
    }
    cfg.global_max_open = kThreads * 8192;
    cfg.max_dispatched = 1 << 20;
    cfg.max_dispatch_per_tick = 1 << 20;
    cfg.backpressure_enabled = false;

    service::SimulatedBackendConfig bcfg;
    bcfg.slots = 8192;
    bcfg.duration_scale = 1e-12;
    bcfg.reserve_events = 3 * cfg.global_max_open + 64;
    service::SimulatedBackend backend(bcfg);
    service::CampaignService svc(cfg, backend);
    backend.attach(svc);

    std::atomic<bool> stop{false};
    // Wall timestamps for the virtual clock: monotonically nondecreasing
    // across threads is not required by the service (each record only
    // compares against its own submit time).
    std::thread pump([&] {
      std::uint64_t now_ns = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        now_ns += 10'000'000;  // 10 ms virtual per pump pass
        svc.tick(now_ns);
        backend.advance_to(now_ns);
      }
      now_ns += 10'000'000;
      svc.tick(now_ns);
      backend.advance_to(now_ns);
    });
    std::vector<std::thread> workers;
    std::vector<double> elapsed(kThreads, 0.0);
    for (std::size_t w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        std::uint64_t seed = 0x5EEDULL + w;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < per_thread; ++i) {
          seed = common::splitmix64(seed);
          (void)svc.submit(static_cast<service::TenantId>(w), seed, 1,
                           static_cast<std::uint64_t>(i) * 1'000);
        }
        elapsed[w] = seconds_since(start);
      });
    }
    for (auto& t : workers) t.join();
    stop.store(true);
    pump.join();
    const double worst = *std::max_element(elapsed.begin(), elapsed.end());
    r.pooled_mt_ns_per_op =
        worst * 1e9 / static_cast<double>(per_thread);
    r.pooled_mt_mops =
        static_cast<double>(kThreads * per_thread) / worst / 1e6;
  }
  {
    NaiveService naive(kThreads);
    std::atomic<bool> stop{false};
    std::thread pump([&] {
      while (!stop.load(std::memory_order_relaxed)) (void)naive.pump();
      (void)naive.pump();
    });
    std::vector<std::thread> workers;
    std::vector<double> elapsed(kThreads, 0.0);
    for (std::size_t w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        std::uint64_t seed = 0x5EEDULL + w;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < per_thread; ++i) {
          seed = common::splitmix64(seed);
          (void)naive.submit(w, seed, static_cast<std::uint64_t>(i) * 1'000);
        }
        elapsed[w] = seconds_since(start);
      });
    }
    for (auto& t : workers) t.join();
    stop.store(true);
    pump.join();
    const double worst = *std::max_element(elapsed.begin(), elapsed.end());
    r.naive_mt_ns_per_op = worst * 1e9 / static_cast<double>(per_thread);
    r.naive_mt_mops =
        static_cast<double>(kThreads * per_thread) / worst / 1e6;
  }
  r.naive_over_pooled_mt = r.naive_mt_ns_per_op / r.pooled_mt_ns_per_op;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_args("service", argc, argv);
  if (!opt) return 2;

  // --- tenant-scaling study (virtual time; bit-deterministic).
  const std::vector<std::size_t> tenant_counts =
      opt->smoke ? std::vector<std::size_t>{1, 10, 100}
                : std::vector<std::size_t>{1, 10, 100, 1000};
  const double virtual_s = opt->smoke ? 120.0 : 600.0;
  common::Json::Object scaling;
  double fairness_t10 = 1.0;
  double goodput_per_slot_t10 = 0.0;
  for (const auto n : tenant_counts) {
    const auto s = run_tenant_scaling(n, virtual_s, /*seed=*/42);
    const auto& rep = s.report;
    scaling["tenants" + std::to_string(n)] = common::Json::Object{
        {"tenants", s.tenants},
        {"slots", s.slots},
        {"virtual_s", s.virtual_s},
        {"offered_per_tenant", s.offered_per_tenant},
        {"submitted", rep.submitted},
        {"admitted", rep.admitted},
        {"rejected", rep.rejected},
        {"shed", rep.shed},
        {"completed", rep.completed},
        {"campaigns_per_s", s.campaigns_per_s},
        {"first_result_p50_s",
         static_cast<double>(rep.first_result_p50_ns) * 1e-9},
        {"first_result_p99_s",
         static_cast<double>(rep.first_result_p99_ns) * 1e-9},
        {"first_result_p999_s",
         static_cast<double>(rep.first_result_p999_ns) * 1e-9},
        {"fairness_jain", rep.fairness_jain},
        {"mean_admission_rate", s.mean_admission_rate},
        {"wall_s", s.wall_s},
    };
    std::cout << "scaling tenants=" << s.tenants << " slots=" << s.slots
              << ": " << s.campaigns_per_s << " campaigns/s, p50/p99/p999 "
              << static_cast<double>(rep.first_result_p50_ns) * 1e-9 << "/"
              << static_cast<double>(rep.first_result_p99_ns) * 1e-9 << "/"
              << static_cast<double>(rep.first_result_p999_ns) * 1e-9
              << " s, fairness " << rep.fairness_jain << ", rejected "
              << rep.rejected << ", shed " << rep.shed << " (wall "
              << s.wall_s << " s)\n";
    if (n == 10) {
      fairness_t10 = rep.fairness_jain;
      goodput_per_slot_t10 =
          s.campaigns_per_s / static_cast<double>(s.slots);
    }
  }

  // --- hot-path microbench (wall clock).
  const std::size_t hot_ops = opt->smoke ? 1u << 18 : 1u << 21;
  const auto hot = run_hot_path(hot_ops);
  std::cout << "hot path (1 thread): pooled " << hot.pooled_ns_per_op
            << " ns/op (" << hot.pooled_mops << " Mops/s, "
            << hot.pooled_admitted << "/" << hot_ops
            << " admitted, pool hw " << hot.pool_high_water << "), naive "
            << hot.naive_ns_per_op << " ns/op => " << hot.naive_over_pooled
            << "x\n";
  std::cout << "hot path (4 threads): pooled " << hot.pooled_mt_ns_per_op
            << " ns/op (" << hot.pooled_mt_mops << " Mops/s), naive "
            << hot.naive_mt_ns_per_op << " ns/op => "
            << hot.naive_over_pooled_mt << "x\n";

  // --- cross-machine-stable gates. The virtual-time numbers are
  // bit-deterministic; naive_over_pooled is a same-machine ratio. The
  // absolute floor: any machine that can run the suite at all clears half
  // a million pooled submissions per second; below that the
  // allocation-free path has rotted (e.g. a per-request allocation or a
  // string lookup crept back in).
  return bench::finish(
      *opt,
      {{.name = "naive_over_pooled",
        .value = hot.naive_over_pooled,
        .vs_baseline = true},
       {.name = "naive_over_pooled_mt",
        .value = hot.naive_over_pooled_mt,
        .vs_baseline = true},
       {.name = "fairness_tenants10",
        .value = fairness_t10,
        .vs_baseline = true},
       {.name = "goodput_per_slot_tenants10",
        .value = goodput_per_slot_t10,
        .vs_baseline = true},
       {.name = "pooled_mops",
        .value = hot.pooled_mops,
        .floor = 0.5}},
      {{"tenant_scaling", std::move(scaling)},
       {"hot_path",
        common::Json::Object{
            {"ops", hot_ops},
            {"pooled_ns_per_op", hot.pooled_ns_per_op},
            {"pooled_mops", hot.pooled_mops},
            {"pooled_admitted", hot.pooled_admitted},
            {"pool_high_water", hot.pool_high_water},
            {"naive_ns_per_op", hot.naive_ns_per_op},
            {"naive_mops", hot.naive_mops},
            {"pooled_mt_ns_per_op", hot.pooled_mt_ns_per_op},
            {"pooled_mt_mops", hot.pooled_mt_mops},
            {"naive_mt_ns_per_op", hot.naive_mt_ns_per_op},
            {"naive_mt_mops", hot.naive_mt_mops},
        }}});
}

// fabric_failover: IM-RP over pdz_benchmark(70) split into 6 shards on
// 3 loopback workers, with a checkpoint every 25 completions, seeded frame
// chaos, and worker 0 killed at its 3rd checkpoint. It reuses the
// campaign core as many short shard campaigns that are checkpointed,
// shipped, parsed and resumed, so checkpoint serialization dominates and
// the campaign core's quadratic hot spots do not: the writes-beside-reads
// case for the checkpoint layer. The loop is driven from one thread, as
// net::run_distributed does, so a seed replays exactly.

#include <array>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench.hpp"
#include "campaign_common.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/session_dump.hpp"
#include "core/shard.hpp"
#include "net/fabric.hpp"
#include "net/loopback.hpp"
#include "net/worker.hpp"
#include "obs/obs.hpp"
#include "protein/datasets.hpp"
#include "timed_generator.hpp"

namespace perfbench {
namespace {

using namespace impress;

constexpr std::size_t kShards = 6;
/// The campaign itself is the same on every seed: checkpoint sizes, which
/// dominate this workload's cost, follow the campaign trajectory, and
/// campaign_scale already varies it. --seed drives the frame chaos, and
/// through it which shard the killed worker holds and where it resumes.
/// Pass i runs chaos seed splitmix64(seed + i), so a run's medians cover
/// several failover schedules instead of hinging on one.
constexpr std::uint64_t kCampaignSeed = 42;
constexpr std::size_t kWorkers = 3;
constexpr std::uint64_t kMaxTicks = 200000;

/// Benchmark-side accounting of the frames the decorated links send:
/// bytes by message type, and the checkpoint layer re-timed on every
/// CHECKPOINT_SHARD payload. Its own time is kept apart so it does not
/// count as tracing overhead or pump time.
struct FrameProbe {
  SpanRecorder* spans = nullptr;
  std::array<std::uint64_t, net::kMsgTypeCount> bytes{};
  Samples checkpoint_bytes;
  std::set<std::pair<std::uint32_t, std::uint32_t>> resumed;  ///< shard, epoch
  bool round_trip_ok = true;
  double probe_s = 0.0;

  void on_send(const net::Message& m) {
    const auto start = Clock::now();
    {
      ScopedSpan span(spans, "bench.encode_frame");
      bytes[net::type_index(net::type_of(m))] += net::encode_frame(m).size();
    }
    if (const auto* cp = std::get_if<net::CheckpointShardMsg>(&m)) {
      checkpoint_bytes.add(static_cast<double>(cp->checkpoint_json.size()));
      core::CampaignCheckpoint doc;
      {
        ScopedSpan span(spans, "checkpoint.parse");
        doc = core::campaign_checkpoint_from_json(
            common::Json::parse(cp->checkpoint_json));
      }
      std::string text;
      {
        ScopedSpan span(spans, "checkpoint.dump");
        text = core::to_json(doc).dump();
      }
      round_trip_ok = round_trip_ok && text == cp->checkpoint_json;
    }
    if (const auto* a = std::get_if<net::AssignShardMsg>(&m);
        a != nullptr && !a->checkpoint_json.empty())
      resumed.emplace(a->shard_id, a->epoch);
    probe_s += seconds_since(start);
  }
};

/// Link decorator: times send() and poll() as net.send / net.poll spans
/// and hands every sent frame to the probe.
class TimedLink final : public net::Link {
 public:
  TimedLink(std::shared_ptr<net::Link> inner, FrameProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  bool send(const net::Message& m) override {
    bool ok = false;
    {
      ScopedSpan span(probe_->spans, "net.send");
      ok = inner_->send(m);
    }
    probe_->on_send(m);
    return ok;
  }
  [[nodiscard]] std::optional<net::Message> poll() override {
    ScopedSpan span(probe_->spans, "net.poll");
    return inner_->poll();
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  [[nodiscard]] std::string_view kind() const noexcept override {
    return inner_->kind();
  }

 private:
  std::shared_ptr<net::Link> inner_;
  FrameProbe* probe_;
};

struct Size {
  std::size_t targets = 0;
  std::size_t checkpoint_every = 0;
};

/// A wired fabric ready to pump: the set-up a run repeats.
struct Fabric {
  std::vector<protein::DesignTarget> targets;
  core::ShardPlan plan;
  net::FabricConfig config;
  std::unique_ptr<net::LoopbackNet> net;
  std::unique_ptr<net::CoordinatorNode> coordinator;
  std::vector<std::unique_ptr<net::WorkerNode>> workers;
};

std::unique_ptr<Fabric> set_up(std::uint64_t chaos_seed, Size size,
                               FrameProbe* probe) {
  auto f = std::make_unique<Fabric>();
  f->targets = protein::pdz_benchmark(size.targets);
  f->plan = core::ShardPlan::contiguous(f->targets, kShards);
  f->config.campaign = core::im_rp_campaign(kCampaignSeed);
  f->config.campaign.session.enable_metrics = true;
  f->config.checkpoint_every = size.checkpoint_every;
  f->config.heartbeat_timeout = 20;
  if (probe != nullptr)
    f->config.campaign.generator = std::make_shared<TimedGenerator>(
        std::make_shared<core::MpnnGenerator>(f->config.campaign.sampler),
        *probe->spans);

  net::ChaosConfig chaos;
  chaos.seed = chaos_seed;
  chaos.drop_rate = 0.02;
  chaos.reorder_rate = 0.05;
  chaos.delay_min = 0;
  chaos.delay_max = 2;
  f->net = std::make_unique<net::LoopbackNet>(chaos);
  f->coordinator = std::make_unique<net::CoordinatorNode>(f->config,
                                                          &f->targets, f->plan);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    auto [coord_side, worker_side] = f->net->make_link_pair(
        "coord->w" + std::to_string(w), "w" + std::to_string(w) + "->coord");
    if (probe != nullptr) {
      coord_side = std::make_shared<TimedLink>(std::move(coord_side), *probe);
      worker_side = std::make_shared<TimedLink>(std::move(worker_side), *probe);
    }
    f->coordinator->add_worker(std::move(coord_side));
    net::WorkerConfig wc;
    wc.worker_id = static_cast<std::uint32_t>(w);
    wc.campaign = f->config.campaign;
    wc.checkpoint_every = f->config.checkpoint_every;
    if (w == 0) wc.kill.die_at_checkpoint = 3;
    f->workers.push_back(std::make_unique<net::WorkerNode>(
        std::move(wc), std::move(worker_side), &f->targets));
  }
  return f;
}

struct Outcome {
  bool converged = false;
  std::uint64_t ticks = 0;
  double wall = 0.0;
  core::CampaignResult result;
  net::FabricStats stats;
  net::LoopbackNet::Stats net;
  obs::MetricsSnapshot shard_metrics;  ///< counters summed over shards
};

Outcome drive(Fabric& f, SpanRecorder* spans) {
  Outcome out;
  const auto start = Clock::now();
  while (!f.coordinator->done() && out.ticks < kMaxTicks) {
    f.net->advance(1);
    ++out.ticks;
    {
      ScopedSpan span(spans, "fabric.coordinator_pump", out.ticks);
      f.coordinator->pump(f.net->now());
    }
    for (auto& worker : f.workers) {
      ScopedSpan span(spans, "fabric.worker_pump", out.ticks);
      worker->pump();
    }
  }
  out.converged = f.coordinator->done();
  if (out.converged) {
    ScopedSpan span(spans, "fabric.merge");
    out.result = f.coordinator->result();
  }
  out.wall = seconds_since(start);
  out.stats = f.coordinator->stats();
  out.net = f.net->stats();

  // Per-shard runtime counters travel inside the stored shard results
  // (the merge drops them); sum them for the task-accounting check.
  std::map<std::string, std::uint64_t> sums;
  for (const auto& shard : f.coordinator->snapshot().shards) {
    if (shard.result_json.empty()) continue;
    const core::CampaignResult r = core::campaign_result_from_json(
        common::Json::parse(shard.result_json));
    for (const auto& c : r.metrics.counters) sums[c.name] += c.value;
  }
  for (const auto& [name, value] : sums)
    out.shard_metrics.counters.push_back({name, value});
  return out;
}

/// Pump time of one span name minus the probe spans directly beneath it.
double pump_s(const SpanRecorder& spans, const char* name) {
  const std::string key = name;
  const std::set<std::string> probes = {"bench.encode_frame",
                                        "checkpoint.parse", "checkpoint.dump"};
  const auto& all = spans.spans();
  double ns = 0.0;
  for (const Span& s : all) {
    if (key == s.name) ns += static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent >= 0 && probes.count(s.name) != 0 &&
        key == all[static_cast<std::size_t>(s.parent)].name)
      ns -= static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns * 1e-9;
}

}  // namespace

void run_fabric_failover(const Options& opt, Report& report) {
  const Size full = opt.tiny ? Size{18, 5} : Size{70, 25};
  const Size half = opt.tiny ? Size{9, 5} : Size{35, 25};

  Samples setup;
  Samples wall_full;
  Samples slope;  ///< per-pass: both sizes run back to back
  Samples reference;  ///< machine-speed probe before every pass
  double rss_mb = 0.0;  ///< after kRssPasses passes
  Samples wall_traced;
  std::string dump_full;
  Outcome last;
  FrameProbe probe;
  probe.spans = &report.spans;

  const auto check = [&](const Outcome& o, std::size_t shards,
                         const std::string& label) {
    report.check(o.converged, label + ": did not converge within " +
                                  std::to_string(kMaxTicks) + " ticks");
    report.check(o.stats.submits_open() == 0,
                 label + ": " + std::to_string(o.stats.submits_open()) +
                     " shard submissions left open");
    report.check(o.stats.workers_declared_dead >= 1,
                 label + ": the killed worker was never declared dead");
    report.attempted += shards + campaign_tasks(o.result);
    report.failed += o.result.failed_tasks + (o.converged ? 0 : shards);
    if (o.converged) check_campaign(report, o.result, o.shard_metrics, label);
  };

  const auto start = Clock::now();
  Samples ticks;
  while (wall_full.size() == 0 || seconds_since(start) < opt.seconds) {
    const std::uint64_t chaos_seed =
        common::splitmix64(opt.seed + wall_full.size());
    double wall_half = 0.0;
    double tasks_half = 0.0;
    reference.add(reference_seconds());
    for (const Size size : {half, full}) {
      const auto t = Clock::now();
      auto fabric = set_up(chaos_seed, size, nullptr);
      if (size.targets == full.targets) setup.add(seconds_since(t));
      Outcome o = drive(*fabric, nullptr);
      check(o, fabric->plan.shards.size(), "untraced");
      if (size.targets == half.targets) {
        wall_half = o.wall;
        tasks_half = static_cast<double>(campaign_tasks(o.result));
        continue;
      }
      wall_full.add(o.wall);
      if (wall_full.size() == kRssPasses) rss_mb = peak_rss_mb();
      ticks.add(static_cast<double>(o.ticks));
      slope.add(loglog_slope(tasks_half, wall_half,
                             static_cast<double>(campaign_tasks(o.result)),
                             o.wall));
      const std::string d = dump_of(o.result);
      if (dump_full.empty()) dump_full = d;
      report.check(d == dump_full,
                   "untraced: merged result differs from the first pass's "
                   "(another chaos schedule)");
      last = std::move(o);
    }
    if (!opt.trace) continue;

    report.spans.clear();
    probe = FrameProbe{};
    probe.spans = &report.spans;
    auto fabric = set_up(chaos_seed, full, &probe);
    Outcome o = drive(*fabric, &report.spans);
    check(o, fabric->plan.shards.size(), "traced");
    wall_traced.add(o.wall - probe.probe_s);
    report.check(dump_of(o.result) == dump_full,
                 "traced: merged result differs from the untraced run");
    report.check(probe.round_trip_ok,
                 "traced: a checkpoint did not survive parse + dump unchanged");
    last = std::move(o);
  }
  while (setup.size() < kMinSetups) {
    const auto t = Clock::now();
    (void)set_up(common::splitmix64(opt.seed), full, nullptr);
    setup.add(seconds_since(t));
  }

  const core::CampaignResult& r = last.result;
  add_science_metrics(report, r, core::im_rp_campaign().protocol.cycles);
  report.metric("fabric.converge_ticks", ticks.median(), "ticks");
  report.metric("bench.failed_frac", report.failed_share(), "fraction");
  add_throughput(report, static_cast<double>(campaign_tasks(r)), wall_full,
                 reference);
  if (!opt.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("peak_rss_mb", rss_mb > 0.0 ? rss_mb : peak_rss_mb(), "MB");
    report.metric("scaling_exponent", slope.median(), "1");
    return;
  }

  // The single-process sharded baseline must match the fabric bit for bit.
  {
    const auto targets = protein::pdz_benchmark(full.targets);
    core::CampaignConfig config = core::im_rp_campaign(kCampaignSeed);
    config.session.enable_metrics = true;
    const core::CampaignResult baseline = core::run_sharded(
        config, targets, core::ShardPlan::contiguous(targets, kShards),
        full.checkpoint_every);
    report.check(dump_of(baseline) == dump_full,
                 "traced: fabric result differs from core::run_sharded");
  }

  const SpanRecorder& spans = report.spans;
  add_layer_counters(report, r, last.shard_metrics);
  const Samples generate{spans.durations_ns("mpnn.generate")};
  report.metric("mpnn.generate_calls", static_cast<double>(generate.size()),
                "count");
  report.metric("mpnn.generate_s", generate.sum() * 1e-9, "s");
  report.metric("mpnn.generate_ns_p50", generate.quantile(0.5), "ns");
  report.metric("mpnn.generate_ns_p99", generate.quantile(0.99), "ns");

  report.metric("checkpoint.count",
                static_cast<double>(probe.checkpoint_bytes.size()), "count");
  report.metric("checkpoint.bytes_p50", probe.checkpoint_bytes.median(), "B");
  report.metric("checkpoint.bytes_max", probe.checkpoint_bytes.quantile(1.0),
                "B");
  report.metric("checkpoint.dump_s", spans.total_s("checkpoint.dump"), "s");
  report.metric("checkpoint.parse_s", spans.total_s("checkpoint.parse"), "s");
  report.metric("checkpoint.resume_ratio",
                static_cast<double>(probe.resumed.size()) /
                    static_cast<double>(last.stats.checkpoints_stored > 0
                                            ? last.stats.checkpoints_stored
                                            : 1),
                "ratio");

  report.metric("net.frames_sent", static_cast<double>(last.net.sent), "count");
  report.metric("net.frames_dropped", static_cast<double>(last.net.dropped),
                "count");
  report.metric("net.frames_reordered", static_cast<double>(last.net.reordered),
                "count");
  std::uint64_t bytes_total = 0;
  for (std::size_t i = 0; i < net::kMsgTypeCount; ++i) {
    bytes_total += probe.bytes[i];
    report.metric("net.bytes_sent." +
                      std::string(obs::names::kFabricMsgTypeNames[i]),
                  static_cast<double>(probe.bytes[i]), "B");
  }
  report.metric("net.bytes_sent", static_cast<double>(bytes_total), "B");
  report.metric("net.send_ns_p50",
                Samples{spans.durations_ns("net.send")}.median(), "ns");
  report.metric("net.poll_ns_p50",
                Samples{spans.durations_ns("net.poll")}.median(), "ns");

  report.metric("fabric.coordinator_pump_s",
                pump_s(spans, "fabric.coordinator_pump"), "s");
  report.metric("fabric.worker_pump_s", pump_s(spans, "fabric.worker_pump"),
                "s");
  report.metric("fabric.merge_s", spans.total_s("fabric.merge"), "s");
  report.metric("fabric.resubmits", static_cast<double>(last.stats.resubmits),
                "count");
  report.metric("fabric.stale_frames",
                static_cast<double>(last.stats.stale_frames), "count");
  report.metric("fabric.reassignments",
                static_cast<double>(last.stats.reassignments), "count");
  report.metric("fabric.workers_dead",
                static_cast<double>(last.stats.workers_declared_dead), "count");
  report.metric("bench.trace_overhead_frac",
                wall_traced.median() / wall_full.median() - 1.0, "fraction");
}

}  // namespace perfbench

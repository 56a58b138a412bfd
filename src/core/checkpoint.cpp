#include "core/checkpoint.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/fs.hpp"
#include "obs/export.hpp"

namespace impress::core {

namespace {

constexpr int kSchemaVersion = 2;
constexpr std::string_view kKind = "impress.checkpoint";

// --- write side: each function appends exactly what Json::dump writes
// for the value (object keys in std::map order, no whitespace) ---

void put_number(double d, std::string& out) {
  if (std::isfinite(d))
    common::append_finite_number(d, out);
  else
    out += "null";  // as Json::dump: JSON has no inf/nan
}

void put_bool(bool b, std::string& out) { out += b ? "true" : "false"; }

// uint64 values are hex strings (JSON numbers are doubles; exact bits
// matter for rng states, cache keys, span ids and sequence numbers).
void put_hex(std::uint64_t v, std::string& out) {
  char buf[17];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v, 16);
  out += '"';
  out.append(buf, end);
  out += '"';
}

/// `[each(x), ...]` over a range.
template <class Range, class Each>
void put_array(const Range& range, std::string& out, Each&& each) {
  out += '[';
  bool first = true;
  for (const auto& x : range) {
    if (!first) out += ',';
    first = false;
    each(x);
  }
  out += ']';
}

/// `{"name":each(value), ...}` over a std::map keyed by string, whose
/// order is the order Json::Object dumps in.
template <class Map, class Each>
void put_map(const Map& map, std::string& out, Each&& each) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    common::append_json_string(name, out);
    out += ':';
    each(value);
  }
  out += '}';
}

void put_rng(const common::Rng::State& s, std::string& out) {
  out += "{\"cached_normal\":";
  put_number(s.cached_normal, out);
  out += ",\"has_cached_normal\":";
  put_bool(s.has_cached_normal, out);
  out += ",\"inc\":";
  put_hex(s.inc, out);
  out += ",\"state\":";
  put_hex(s.state, out);
  out += '}';
}

void put_structure(const protein::Structure& s, std::string& out) {
  out += "{\"chains\":";
  put_array(s.chains(), out, [&](const protein::Chain& chain) {
    out += "{\"ca\":";
    put_array(chain.ca, out, [&](const protein::Vec3& v) {
      out += '[';
      put_number(v.x, out);
      out += ',';
      put_number(v.y, out);
      out += ',';
      put_number(v.z, out);
      out += ']';
    });
    out += ",\"id\":";
    common::append_json_string(std::string_view(&chain.id, 1), out);
    out += ",\"sequence\":";
    common::append_json_string(chain.sequence.to_string(), out);
    out += '}';
  });
  out += ",\"name\":";
  common::append_json_string(s.name(), out);
  out += ",\"plddt\":";
  put_array(s.plddt(), out, [&](double p) { put_number(p, out); });
  out += '}';
}

void put_fold_metrics(const fold::FoldMetrics& m, std::string& out) {
  out += "{\"ipae\":";
  put_number(m.ipae, out);
  out += ",\"plddt\":";
  put_number(m.plddt, out);
  out += ",\"ptm\":";
  put_number(m.ptm, out);
  out += '}';
}

void put_cache_entry(const fold::FoldCache::Snapshot::Entry& e,
                     std::string& out) {
  out += "{\"key\":";
  put_hex(e.key, out);
  out += ",\"prediction\":{\"best_index\":";
  put_number(static_cast<double>(e.prediction->best_index), out);
  out += ",\"models\":";
  put_array(e.prediction->models, out, [&](const fold::ModelPrediction& m) {
    out += "{\"metrics\":";
    put_fold_metrics(m.metrics, out);
    out += ",\"structure\":";
    put_structure(m.structure, out);
    out += '}';
  });
  out += "}}";
}

void put_pipeline(const Pipeline::Snapshot& p, std::string& out) {
  out += "{\"candidates\":";
  put_array(p.candidates, out, [&](const mpnn::ScoredSequence& c) {
    out += "{\"log_likelihood\":";
    put_number(c.log_likelihood, out);
    out += ",\"sequence\":";
    common::append_json_string(c.sequence.to_string(), out);
    out += '}';
  });
  out += ",\"current\":";
  put_structure(p.current.structure, out);
  out += ",\"cycle\":";
  put_number(p.cycle, out);
  out += ",\"history\":";
  put_array(p.history, out, [&](const IterationRecord& rec) {
    out += "{\"accepted\":";
    put_bool(rec.accepted, out);
    out += ",\"cycle\":";
    put_number(rec.cycle, out);
    out += ",\"metrics\":";
    put_fold_metrics(rec.metrics, out);
    out += ",\"retries\":";
    put_number(rec.retries, out);
    out += ",\"sequence\":";
    common::append_json_string(rec.sequence, out);
    out += ",\"true_fitness\":";
    put_number(rec.true_fitness, out);
    out += '}';
  });
  out += ",\"id\":";
  common::append_json_string(p.id, out);
  out += ",\"is_sub\":";
  put_bool(p.is_sub, out);
  if (p.last_metrics) {
    out += ",\"last_metrics\":";
    put_fold_metrics(*p.last_metrics, out);
  }
  out += ",\"next_candidate\":";
  put_number(static_cast<double>(p.next_candidate), out);
  out += ",\"pending_candidate\":";
  put_number(static_cast<double>(p.pending_candidate), out);
  out += ",\"pending_reuse_features\":";
  put_bool(p.pending_reuse_features, out);
  out += ",\"retries_this_cycle\":";
  put_number(p.retries_this_cycle, out);
  out += ",\"rng\":";
  put_rng(p.rng, out);
  out += ",\"state\":";
  put_number(p.state, out);
  out += ",\"target\":";
  common::append_json_string(p.target_name, out);
  out += ",\"task_counter\":";
  put_hex(p.task_counter, out);
  out += ",\"total_retries\":";
  put_number(p.total_retries, out);
  out += '}';
}

void put_coordinator(const CoordinatorCheckpoint& c, std::string& out) {
  out += "{\"failed_tasks\":";
  put_hex(c.failed_tasks, out);
  out += ",\"fold_retries\":";
  put_hex(c.fold_retries, out);
  out += ",\"fold_tasks\":";
  put_hex(c.fold_tasks, out);
  out += ",\"generator_tasks\":";
  put_hex(c.generator_tasks, out);
  out += ",\"parked\":";
  put_array(c.parked, out,
            [&](const CoordinatorCheckpoint::ParkedAction& pa) {
              out += '{';
              if (pa.fold_input) {
                out += "\"fold_input\":";
                put_structure(pa.fold_input->structure, out);
                out += ',';
              }
              out += "\"kind\":";
              put_number(pa.kind, out);
              out += ",\"pipeline\":";
              common::append_json_string(pa.pipeline_id, out);
              out += ",\"refined\":";
              put_bool(pa.refined, out);
              out += ",\"reuse_features\":";
              put_bool(pa.reuse_features, out);
              out += '}';
            });
  out += ",\"pipeline_spans\":";
  put_map(c.pipeline_spans, out,
          [&](obs::SpanId span) { put_hex(span, out); });
  out += ",\"pipelines\":";
  put_array(c.pipelines, out,
            [&](const Pipeline::Snapshot& p) { put_pipeline(p, out); });
  out += ",\"refine_tasks\":";
  put_hex(c.refine_tasks, out);
  out += ",\"root_pipelines\":";
  put_hex(c.root_pipelines, out);
  out += ",\"subpipeline_count\":";
  put_map(c.subpipeline_count, out, [&](int n) { put_number(n, out); });
  out += ",\"subpipelines\":";
  put_hex(c.subpipelines, out);
  out += '}';
}

void put_pilot(const rp::PilotRestore& p, std::string& out) {
  out += "{\"executor_rng\":";
  put_rng(p.executor_rng, out);
  out += ",\"failed\":";
  put_bool(p.failed, out);
  out += ",\"intervals\":";
  put_array(p.intervals, out, [&](const hpc::UsageInterval& iv) {
    out += "{\"cores\":";
    put_number(iv.cores, out);
    out += ",\"cpu_intensity\":";
    put_number(iv.cpu_intensity, out);
    out += ",\"end\":";
    put_number(iv.end, out);
    out += ",\"gpu_intensity\":";
    put_number(iv.gpu_intensity, out);
    out += ",\"gpus\":";
    put_number(iv.gpus, out);
    out += ",\"start\":";
    put_number(iv.start, out);
    out += ",\"task_uid\":";
    common::append_json_string(iv.task_uid, out);
    out += '}';
  });
  out += ",\"uid\":";
  common::append_json_string(p.uid, out);
  out += '}';
}

// --- read side ---

std::uint64_t parse_hex_u64(const common::Json& j) {
  const std::string& s = j.as_string();
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::invalid_argument("checkpoint: malformed hex uint64 '" + s +
                                "'");
  return v;
}

common::Rng::State rng_from_json(const common::Json& j) {
  common::Rng::State s;
  s.state = parse_hex_u64(j.at("state"));
  s.inc = parse_hex_u64(j.at("inc"));
  s.cached_normal = j.at("cached_normal").as_number();
  s.has_cached_normal = j.at("has_cached_normal").as_bool();
  return s;
}

protein::Structure structure_from_json(const common::Json& j) {
  std::vector<protein::Chain> chains;
  for (const auto& c : j.at("chains").as_array()) {
    protein::Chain chain;
    const std::string& id = c.at("id").as_string();
    if (id.size() != 1)
      throw std::invalid_argument("checkpoint: chain id must be one char");
    chain.id = id[0];
    chain.sequence =
        protein::Sequence::from_string(c.at("sequence").as_string());
    for (const auto& v : c.at("ca").as_array())
      chain.ca.push_back(protein::Vec3{v.at(0).as_number(),
                                       v.at(1).as_number(),
                                       v.at(2).as_number()});
    chains.push_back(std::move(chain));
  }
  protein::Structure s(j.at("name").as_string(), std::move(chains));
  std::vector<double> plddt;
  for (const auto& p : j.at("plddt").as_array())
    plddt.push_back(p.as_number());
  s.set_plddt(std::move(plddt));
  return s;
}

protein::Complex complex_from_json(const common::Json& j) {
  return protein::Complex{structure_from_json(j)};
}

fold::FoldMetrics fold_metrics_from_json(const common::Json& j) {
  return fold::FoldMetrics{.plddt = j.at("plddt").as_number(),
                           .ptm = j.at("ptm").as_number(),
                           .ipae = j.at("ipae").as_number()};
}

fold::Prediction prediction_from_json(const common::Json& j) {
  fold::Prediction p;
  for (const auto& m : j.at("models").as_array())
    p.models.push_back(
        fold::ModelPrediction{fold_metrics_from_json(m.at("metrics")),
                              structure_from_json(m.at("structure"))});
  p.best_index = static_cast<std::size_t>(j.at("best_index").as_number());
  return p;
}

IterationRecord iteration_from_json(const common::Json& j) {
  IterationRecord rec;
  rec.cycle = static_cast<int>(j.at("cycle").as_number());
  rec.metrics = fold_metrics_from_json(j.at("metrics"));
  rec.true_fitness = j.at("true_fitness").as_number();
  rec.accepted = j.at("accepted").as_bool();
  rec.retries = static_cast<int>(j.at("retries").as_number());
  rec.sequence = j.at("sequence").as_string();
  return rec;
}

Pipeline::Snapshot pipeline_from_json(const common::Json& j) {
  Pipeline::Snapshot p;
  p.id = j.at("id").as_string();
  p.target_name = j.at("target").as_string();
  p.current = complex_from_json(j.at("current"));
  p.rng = rng_from_json(j.at("rng"));
  p.task_counter = parse_hex_u64(j.at("task_counter"));
  p.state = static_cast<int>(j.at("state").as_number());
  p.cycle = static_cast<int>(j.at("cycle").as_number());
  p.is_sub = j.at("is_sub").as_bool();
  for (const auto& c : j.at("candidates").as_array())
    p.candidates.push_back(mpnn::ScoredSequence{
        protein::Sequence::from_string(c.at("sequence").as_string()),
        c.at("log_likelihood").as_number()});
  p.next_candidate =
      static_cast<std::uint64_t>(j.at("next_candidate").as_number());
  p.pending_candidate =
      static_cast<std::uint64_t>(j.at("pending_candidate").as_number());
  p.pending_reuse_features = j.at("pending_reuse_features").as_bool();
  p.retries_this_cycle =
      static_cast<int>(j.at("retries_this_cycle").as_number());
  p.total_retries = static_cast<int>(j.at("total_retries").as_number());
  if (j.contains("last_metrics"))
    p.last_metrics = fold_metrics_from_json(j.at("last_metrics"));
  for (const auto& rec : j.at("history").as_array())
    p.history.push_back(iteration_from_json(rec));
  return p;
}

CoordinatorCheckpoint coordinator_from_json(const common::Json& j) {
  CoordinatorCheckpoint c;
  for (const auto& p : j.at("pipelines").as_array())
    c.pipelines.push_back(pipeline_from_json(p));
  for (const auto& a : j.at("parked").as_array()) {
    CoordinatorCheckpoint::ParkedAction pa;
    pa.pipeline_id = a.at("pipeline").as_string();
    pa.kind = static_cast<int>(a.at("kind").as_number());
    if (a.contains("fold_input"))
      pa.fold_input = complex_from_json(a.at("fold_input"));
    pa.reuse_features = a.at("reuse_features").as_bool();
    pa.refined = a.at("refined").as_bool();
    c.parked.push_back(std::move(pa));
  }
  for (const auto& [name, count] : j.at("subpipeline_count").as_object())
    c.subpipeline_count[name] = static_cast<int>(count.as_number());
  for (const auto& [id, span] : j.at("pipeline_spans").as_object())
    c.pipeline_spans[id] = parse_hex_u64(span);
  c.root_pipelines = parse_hex_u64(j.at("root_pipelines"));
  c.subpipelines = parse_hex_u64(j.at("subpipelines"));
  c.generator_tasks = parse_hex_u64(j.at("generator_tasks"));
  c.refine_tasks = parse_hex_u64(j.at("refine_tasks"));
  c.fold_tasks = parse_hex_u64(j.at("fold_tasks"));
  c.fold_retries = parse_hex_u64(j.at("fold_retries"));
  c.failed_tasks = parse_hex_u64(j.at("failed_tasks"));
  return c;
}

fold::FoldCache::Snapshot cache_from_json(const common::Json& j) {
  fold::FoldCache::Snapshot s;
  for (const auto& shard : j.at("shards").as_array()) {
    std::vector<fold::FoldCache::Snapshot::Entry> entries;
    for (const auto& e : shard.as_array())
      entries.push_back(fold::FoldCache::Snapshot::Entry{
          parse_hex_u64(e.at("key")),
          std::make_shared<const fold::Prediction>(
              prediction_from_json(e.at("prediction")))});
    s.shards.push_back(std::move(entries));
  }
  s.hits = parse_hex_u64(j.at("hits"));
  s.misses = parse_hex_u64(j.at("misses"));
  s.evictions = parse_hex_u64(j.at("evictions"));
  // Absent in pre-PR-10 documents; zero is the correct backfill.
  if (j.contains("duplicate_discards"))
    s.duplicate_discards = parse_hex_u64(j.at("duplicate_discards"));
  return s;
}

rp::PilotRestore pilot_from_json(const common::Json& j) {
  rp::PilotRestore p;
  p.uid = j.at("uid").as_string();
  p.failed = j.at("failed").as_bool();
  p.executor_rng = rng_from_json(j.at("executor_rng"));
  for (const auto& i : j.at("intervals").as_array())
    p.intervals.push_back(hpc::UsageInterval{
        .start = i.at("start").as_number(),
        .end = i.at("end").as_number(),
        .cores = static_cast<std::uint32_t>(i.at("cores").as_number()),
        .gpus = static_cast<std::uint32_t>(i.at("gpus").as_number()),
        .cpu_intensity = i.at("cpu_intensity").as_number(),
        .gpu_intensity = i.at("gpu_intensity").as_number(),
        .task_uid = i.at("task_uid").as_string()});
  return p;
}

}  // namespace

std::string CheckpointWriter::write(const CampaignCheckpoint& checkpoint) {
  std::string out;
  // Checkpoints of one campaign grow slowly; sizing for the last one plus
  // some slack spares the repeated reallocation of a multi-MB string.
  out.reserve(last_size_ + last_size_ / 8 + 4096);
  out += "{\"campaign\":";
  common::append_json_string(checkpoint.campaign_name, out);
  out += ",\"campaign_span\":";
  put_hex(checkpoint.campaign_span, out);
  out += ",\"coordinator\":";
  put_coordinator(checkpoint.coordinator, out);
  if (checkpoint.fold_cache) {
    out += ",\"fold_cache\":";
    put_cache(*checkpoint.fold_cache, out);
  }
  if (!checkpoint.generator_state.is_null()) {
    out += ",\"generator_state\":";
    out += checkpoint.generator_state.dump();
  }
  out += ",\"kind\":";
  common::append_json_string(kKind, out);
  if (!checkpoint.metrics.empty()) {
    out += ",\"metrics\":";
    out += obs::metrics_to_json(checkpoint.metrics).dump();
  }
  out += ",\"now\":";
  put_number(checkpoint.now, out);
  out += ",\"ordinal\":";
  put_hex(checkpoint.ordinal, out);
  out += ",\"pilots\":";
  put_array(checkpoint.pilots, out,
            [&](const rp::PilotRestore& p) { put_pilot(p, out); });
  out += ",\"profiler_events\":";
  put_array(checkpoint.profiler_events, out, [&](const hpc::ProfileEvent& e) {
    out += "{\"entity\":";
    common::append_json_string(e.entity, out);
    out += ",\"event\":";
    common::append_json_string(e.event, out);
    out += ",\"info\":";
    common::append_json_string(e.info, out);
    out += ",\"time\":";
    put_number(e.time, out);
    out += '}';
  });
  out += ",\"schema_version\":";
  put_number(kSchemaVersion, out);
  out += ",\"seed\":";
  put_hex(checkpoint.seed, out);
  out += ",\"targets\":";
  put_number(static_cast<double>(checkpoint.targets), out);
  const auto& tasks = checkpoint.task_counters;
  out += ",\"task_counters\":{\"cancelled\":";
  put_hex(tasks.cancelled, out);
  out += ",\"done\":";
  put_hex(tasks.done, out);
  out += ",\"failed\":";
  put_hex(tasks.failed, out);
  out += ",\"requeued\":";
  put_hex(tasks.requeued, out);
  out += ",\"retried\":";
  put_hex(tasks.retried, out);
  out += ",\"submitted\":";
  put_hex(tasks.submitted, out);
  out += ",\"timed_out\":";
  put_hex(tasks.timed_out, out);
  out += '}';
  if (!checkpoint.trace.empty()) {
    out += ",\"trace\":";
    out += obs::spans_to_json(checkpoint.trace).dump();
  }
  out += ",\"trace_next_seq\":";
  put_hex(checkpoint.trace_next_seq, out);
  out += ",\"uid_counters\":";
  put_map(checkpoint.uid_counters, out,
          [&](std::uint64_t n) { put_hex(n, out); });
  out += '}';
  last_size_ = out.size();
  return out;
}

void CheckpointWriter::put_cache(const fold::FoldCache::Snapshot& s,
                                 std::string& out) {
  out += "{\"duplicate_discards\":";
  put_hex(s.duplicate_discards, out);
  out += ",\"evictions\":";
  put_hex(s.evictions, out);
  out += ",\"hits\":";
  put_hex(s.hits, out);
  out += ",\"misses\":";
  put_hex(s.misses, out);
  out += ",\"shards\":";
  // Entries still resident move from the old memo to the new one (node
  // handles, no copy); new entries are formatted into `out` once and
  // their text kept. Keys evicted since the last write are left behind
  // in the old memo and freed with it.
  std::size_t resident = 0;
  for (const auto& shard : s.shards) resident += shard.size();
  Memo kept;
  kept.reserve(resident);
  put_array(s.shards, out,
            [&](const std::vector<fold::FoldCache::Snapshot::Entry>& shard) {
              put_array(shard, out, [&](const auto& e) {
                if (auto node = entries_.extract(e.key)) {
                  out += node.mapped();
                  kept.insert(std::move(node));
                  return;
                }
                const std::size_t start = out.size();
                put_cache_entry(e, out);
                kept.emplace(e.key, out.substr(start));
              });
            });
  out += '}';
  entries_.swap(kept);
}

common::Json to_json(const CampaignCheckpoint& checkpoint) {
  return common::Json::parse(CheckpointWriter{}.write(checkpoint));
}

CampaignCheckpoint campaign_checkpoint_from_json(const common::Json& doc) {
  if (!doc.is_object() || !doc.contains("kind") ||
      doc.at("kind").as_string() != kKind)
    throw std::invalid_argument("checkpoint: not a campaign checkpoint");
  if (static_cast<int>(doc.at("schema_version").as_number()) != kSchemaVersion)
    throw std::invalid_argument("checkpoint: unsupported schema version");

  CampaignCheckpoint c;
  c.campaign_name = doc.at("campaign").as_string();
  c.seed = parse_hex_u64(doc.at("seed"));
  c.targets = static_cast<std::size_t>(doc.at("targets").as_number());
  c.ordinal = parse_hex_u64(doc.at("ordinal"));

  c.now = doc.at("now").as_number();
  for (const auto& e : doc.at("profiler_events").as_array())
    c.profiler_events.push_back(
        hpc::ProfileEvent{.time = e.at("time").as_number(),
                          .entity = e.at("entity").as_string(),
                          .event = e.at("event").as_string(),
                          .info = e.at("info").as_string()});
  if (doc.contains("trace")) c.trace = obs::spans_from_json(doc.at("trace"));
  c.trace_next_seq = parse_hex_u64(doc.at("trace_next_seq"));
  c.campaign_span = parse_hex_u64(doc.at("campaign_span"));
  if (doc.contains("metrics"))
    c.metrics = obs::metrics_from_json(doc.at("metrics"));
  for (const auto& [name, count] : doc.at("uid_counters").as_object())
    c.uid_counters[name] = parse_hex_u64(count);
  const auto& tasks = doc.at("task_counters");
  c.task_counters.submitted = parse_hex_u64(tasks.at("submitted"));
  c.task_counters.done = parse_hex_u64(tasks.at("done"));
  c.task_counters.failed = parse_hex_u64(tasks.at("failed"));
  c.task_counters.cancelled = parse_hex_u64(tasks.at("cancelled"));
  c.task_counters.retried = parse_hex_u64(tasks.at("retried"));
  c.task_counters.timed_out = parse_hex_u64(tasks.at("timed_out"));
  c.task_counters.requeued = parse_hex_u64(tasks.at("requeued"));
  for (const auto& p : doc.at("pilots").as_array())
    c.pilots.push_back(pilot_from_json(p));

  c.coordinator = coordinator_from_json(doc.at("coordinator"));
  if (doc.contains("fold_cache"))
    c.fold_cache = cache_from_json(doc.at("fold_cache"));
  if (doc.contains("generator_state"))
    c.generator_state = doc.at("generator_state");
  return c;
}

void CheckpointWriter::save(const CampaignCheckpoint& checkpoint,
                            const std::string& path) {
  std::string text = write(checkpoint);
  text += '\n';
  common::write_file_atomic(path, text);
}

void save_checkpoint(const CampaignCheckpoint& checkpoint,
                     const std::string& path) {
  CheckpointWriter{}.save(checkpoint, path);
}

CampaignCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return campaign_checkpoint_from_json(common::Json::parse(ss.str()));
}

}  // namespace impress::core

#include "obs/export.hpp"

#include <cmath>
#include <map>
#include <unordered_map>

namespace impress::obs {

namespace {

using common::Json;

/// Prometheus float formatting: integers render bare, everything else
/// with enough digits to round-trip; non-finite values as printf spells
/// them.
std::string format_number(double v) {
  if (std::isnan(v)) return std::signbit(v) ? "-nan" : "nan";
  if (std::isinf(v)) return v < 0 ? "-inf" : "inf";
  std::string out;
  common::append_finite_number(v, out);
  return out;
}

}  // namespace

common::Json chrome_trace(const std::vector<SpanRecord>& spans) {
  // Assign tracks: campaign root -> 0, pipelines -> fresh track, others
  // inherit. Spans arrive ordered by open_seq, so a parent's track is
  // always assigned before its children ask for it.
  std::unordered_map<SpanId, std::uint64_t> track;
  // Ordered: the metadata events below iterate this, and trace files must
  // come out byte-identical run to run (hash order would leak into them).
  std::map<std::uint64_t, std::string> track_name;
  std::uint64_t next_track = 1;

  Json::Array events;
  for (const auto& s : spans) {
    std::uint64_t tid = 0;
    if (s.category == categories::kPipeline) {
      tid = next_track++;
      track_name[tid] = s.name;
    } else if (const auto it = track.find(s.parent); it != track.end()) {
      tid = it->second;
    }
    track[s.id] = tid;
    if (track_name.find(0) == track_name.end() &&
        s.category == categories::kCampaign)
      track_name[0] = s.name;

    const double end = s.closed() ? s.end : s.start;
    Json::Object args;
    args["span_id"] = static_cast<double>(s.id);
    if (s.parent != 0) args["parent_id"] = static_cast<double>(s.parent);
    for (const auto& [k, v] : s.attrs) args[k] = v;

    Json::Object ev;
    ev["name"] = s.name;
    ev["cat"] = s.category;
    ev["ph"] = "X";
    ev["ts"] = s.start * 1e6;
    ev["dur"] = (end - s.start) * 1e6;
    ev["pid"] = 1;
    ev["tid"] = static_cast<double>(tid);
    ev["args"] = std::move(args);
    events.push_back(std::move(ev));
  }

  // Name the tracks (chrome "M" metadata events).
  for (const auto& [tid, name] : track_name) {
    Json::Object ev;
    ev["name"] = "thread_name";
    ev["ph"] = "M";
    ev["pid"] = 1;
    ev["tid"] = static_cast<double>(tid);
    ev["args"] = Json::Object{{"name", name}};
    events.push_back(std::move(ev));
  }

  Json::Object doc;
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              int indent) {
  return chrome_trace(spans).dump(indent);
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    out += "# HELP " + c.name + "_total Monotonic event counter.\n";
    out += "# TYPE " + c.name + "_total counter\n";
    out += c.name + "_total " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    out += "# HELP " + g.name + " Instantaneous value.\n";
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " " + format_number(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    out += "# HELP " + h.name + " Fixed-bucket histogram.\n";
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      out += h.name + "_bucket{le=\"" + format_number(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += h.name + "_sum " + format_number(h.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

common::Json spans_to_json(const std::vector<SpanRecord>& spans) {
  Json::Array out;
  out.reserve(spans.size());
  for (const auto& s : spans) {
    Json::Object o;
    o["id"] = static_cast<double>(s.id);
    o["parent"] = static_cast<double>(s.parent);
    o["name"] = s.name;
    o["category"] = s.category;
    o["start"] = s.start;
    o["end"] = s.end;
    o["open_seq"] = static_cast<double>(s.open_seq);
    o["close_seq"] = static_cast<double>(s.close_seq);
    if (!s.attrs.empty()) {
      Json::Array attrs;
      for (const auto& [k, v] : s.attrs)
        attrs.push_back(Json::Array{k, v});
      o["attrs"] = std::move(attrs);
    }
    out.push_back(std::move(o));
  }
  return out;
}

std::vector<SpanRecord> spans_from_json(const common::Json& doc) {
  std::vector<SpanRecord> out;
  out.reserve(doc.size());
  for (const auto& o : doc.as_array()) {
    SpanRecord s;
    s.id = static_cast<SpanId>(o.at("id").as_number());
    s.parent = static_cast<SpanId>(o.at("parent").as_number());
    s.name = o.at("name").as_string();
    s.category = o.at("category").as_string();
    s.start = o.at("start").as_number();
    s.end = o.at("end").as_number();
    s.open_seq = static_cast<std::uint64_t>(o.at("open_seq").as_number());
    s.close_seq = static_cast<std::uint64_t>(o.at("close_seq").as_number());
    if (o.contains("attrs"))
      for (const auto& kv : o.at("attrs").as_array())
        s.attrs.emplace_back(kv.at(0).as_string(), kv.at(1).as_string());
    out.push_back(std::move(s));
  }
  return out;
}

common::Json metrics_to_json(const MetricsSnapshot& snapshot) {
  Json::Array counters;
  for (const auto& c : snapshot.counters)
    counters.push_back(Json::Object{{"name", c.name},
                                    {"value", static_cast<double>(c.value)}});
  Json::Array gauges;
  for (const auto& g : snapshot.gauges)
    gauges.push_back(Json::Object{{"name", g.name}, {"value", g.value}});
  Json::Array histograms;
  for (const auto& h : snapshot.histograms) {
    Json::Array bounds;
    for (double b : h.bounds) bounds.push_back(b);
    Json::Array buckets;
    for (std::uint64_t b : h.buckets)
      buckets.push_back(static_cast<double>(b));
    histograms.push_back(Json::Object{
        {"name", h.name},
        {"bounds", std::move(bounds)},
        {"buckets", std::move(buckets)},
        {"count", static_cast<double>(h.count)},
        {"sum", h.sum},
    });
  }
  return Json::Object{{"counters", std::move(counters)},
                      {"gauges", std::move(gauges)},
                      {"histograms", std::move(histograms)}};
}

MetricsSnapshot metrics_from_json(const common::Json& doc) {
  MetricsSnapshot out;
  for (const auto& c : doc.at("counters").as_array())
    out.counters.push_back(CounterSample{
        c.at("name").as_string(),
        static_cast<std::uint64_t>(c.at("value").as_number())});
  for (const auto& g : doc.at("gauges").as_array())
    out.gauges.push_back(
        GaugeSample{g.at("name").as_string(), g.at("value").as_number()});
  for (const auto& h : doc.at("histograms").as_array()) {
    HistogramSample s;
    s.name = h.at("name").as_string();
    for (const auto& b : h.at("bounds").as_array())
      s.bounds.push_back(b.as_number());
    for (const auto& b : h.at("buckets").as_array())
      s.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
    s.count = static_cast<std::uint64_t>(h.at("count").as_number());
    s.sum = h.at("sum").as_number();
    out.histograms.push_back(std::move(s));
  }
  return out;
}

}  // namespace impress::obs

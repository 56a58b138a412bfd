#include "obs/trace.hpp"

#include <unordered_map>

namespace impress::obs {

namespace {

/// Per-thread ambient (tracer, parent) stack — see AmbientContext.
struct AmbientFrame {
  Tracer* tracer = nullptr;
  SpanId parent = 0;
};
thread_local std::vector<AmbientFrame> ambient_stack;  // NOLINT

}  // namespace

SpanId Tracer::begin(double time, std::string_view name,
                     std::string_view category, SpanId parent) {
  if (!enabled()) return 0;
  return log_.append(Event{Kind::kOpen, /*id: its seq*/ 0, parent, time,
                           std::string(name), std::string(category)});
}

void Tracer::end(SpanId id, double time) {
  if (!enabled() || id == 0) return;
  log_.append(Event{Kind::kClose, id, /*parent=*/0, time, {}, {}});
}

void Tracer::attr(SpanId id, std::string_view key, std::string_view value) {
  if (!enabled() || id == 0) return;
  log_.append(Event{Kind::kAttr, id, /*parent=*/0, 0.0, std::string(key),
                    std::string(value)});
}

SpanId Tracer::instant(double time, std::string_view name,
                       std::string_view category, SpanId parent) {
  const SpanId id = begin(time, name, category, parent);
  end(id, time);
  return id;
}

void Tracer::preload(std::vector<SpanRecord> spans, std::uint64_t next_seq) {
  std::lock_guard lock(preloaded_mutex_);
  preloaded_ = std::move(spans);
  log_.set_next_seq(next_seq);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard lock(preloaded_mutex_);
    out = preloaded_;
  }
  std::unordered_map<SpanId, std::size_t> index;  // span id -> out slot
  for (std::size_t i = 0; i < out.size(); ++i) index[out[i].id] = i;
  for (auto& [seq, e] : log_.snapshot()) {
    switch (e.kind) {
      case Kind::kOpen: {
        index[seq] = out.size();
        SpanRecord r;
        r.id = seq;
        r.parent = e.parent;
        r.name = std::move(e.name);
        r.category = std::move(e.category);
        r.start = e.time;
        r.open_seq = seq;
        out.push_back(std::move(r));
        break;
      }
      case Kind::kClose: {
        const auto it = index.find(e.id);
        if (it == index.end()) break;  // close without open: drop
        SpanRecord& r = out[it->second];
        if (r.close_seq == 0) {  // first close wins
          r.end = e.time;
          r.close_seq = seq;
        }
        break;
      }
      case Kind::kAttr: {
        const auto it = index.find(e.id);
        if (it == index.end()) break;
        out[it->second].attrs.emplace_back(std::move(e.name),
                                           std::move(e.category));
        break;
      }
    }
  }
  return out;  // already ordered by open_seq (the snapshot is seq-ordered)
}

std::size_t Tracer::size() const {
  const std::size_t live =
      log_.count_if([](const Event& e) { return e.kind == Kind::kOpen; });
  std::lock_guard lock(preloaded_mutex_);
  return preloaded_.size() + live;
}

void Tracer::clear() {
  log_.clear();
  std::lock_guard lock(preloaded_mutex_);
  preloaded_.clear();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name,
                       std::string_view category, SpanId parent) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  id_ = tracer->begin(tracer->now(), name, category, parent);
}

void ScopedSpan::close() {
  if (tracer_ == nullptr) return;
  if (ambient_ && !ambient_stack.empty() &&
      ambient_stack.back().tracer == tracer_ &&
      ambient_stack.back().parent == id_)
    ambient_stack.pop_back();
  if (id_ != 0) tracer_->end(id_, tracer_->now());
  tracer_ = nullptr;
  id_ = 0;
  ambient_ = false;
}

AmbientContext::AmbientContext(Tracer* tracer, SpanId parent) noexcept {
  if (tracer == nullptr || !tracer->enabled()) return;
  ambient_stack.push_back(AmbientFrame{tracer, parent});
  pushed_ = true;
}

AmbientContext::~AmbientContext() {
  if (pushed_ && !ambient_stack.empty()) ambient_stack.pop_back();
}

Tracer* ambient_tracer() noexcept {
  return ambient_stack.empty() ? nullptr : ambient_stack.back().tracer;
}

SpanId ambient_parent() noexcept {
  return ambient_stack.empty() ? 0 : ambient_stack.back().parent;
}

ScopedSpan ambient_span(std::string_view name, std::string_view category) {
  ScopedSpan span(ambient_tracer(), name, category, ambient_parent());
  if (span.id() != 0) {
    // While alive, this span is the ambient parent for nested calls.
    ambient_stack.push_back(AmbientFrame{span.tracer_, span.id()});
    span.ambient_ = true;
  }
  return span;
}

}  // namespace impress::obs

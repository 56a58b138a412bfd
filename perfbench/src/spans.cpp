#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t SpanRecorder::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  if (request == 0 && !stack_.empty()) s.request = spans_[stack_.back()].request;
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Spans close in LIFO order; tolerate an out-of-order close by
  // unwinding to it.
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void SpanRecorder::clear() {
  spans_.clear();
  stack_.clear();
}

std::vector<double> SpanRecorder::durations_ns(const char* name,
                                               std::uint64_t request) const {
  const std::string key = name;
  std::vector<double> out;
  for (const Span& s : spans_)
    if (key == s.name && (request == kAnyRequest || request == s.request))
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

double SpanRecorder::total_s(const char* name, std::uint64_t request) const {
  double ns = 0.0;
  for (const double d : durations_ns(name, request)) ns += d;
  return ns * 1e-9;
}

double SpanRecorder::self_s(std::size_t index) const {
  const Span& span = spans_[index];
  double ns = static_cast<double>(span.end_ns - span.start_ns);
  for (const Span& s : spans_)
    if (s.parent == static_cast<std::int64_t>(index))
      ns -= static_cast<double>(s.end_ns - s.start_ns);
  return ns * 1e-9;
}

namespace {

std::string layer_of(const char* name) {
  const std::string n = name;
  return n.substr(0, n.find('.'));
}

}  // namespace

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::layer_times()
    const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);

  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = layer_of(s.name);
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    LayerTime& lt = out[layer];
    ++lt.spans;
    lt.self_s += (dur - child_ns[i]) * 1e-9;
    // Total counts a span only when no ancestor belongs to the same layer,
    // so nested spans of one layer are not counted twice.
    bool nested = false;
    for (std::int64_t p = s.parent; p >= 0;
         p = spans_[static_cast<std::size_t>(p)].parent) {
      if (layer_of(spans_[static_cast<std::size_t>(p)].name) == layer) {
        nested = true;
        break;
      }
    }
    if (!nested) lt.total_s += dur * 1e-9;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"request\":%llu}}\n",
                  i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

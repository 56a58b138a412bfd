#include "hpc/profiler.hpp"

#include <unordered_map>

namespace impress::hpc {

void Profiler::record(double time, std::string_view entity,
                      std::string_view event, std::string_view info) {
  // Build the record (three string allocations) before the log takes its
  // buffer lock: the writer/reader critical section covers only the push.
  log_.append(ProfileEvent{time, std::string(entity), std::string(event),
                           std::string(info)});
}

std::vector<ProfileEvent> Profiler::events() const {
  std::vector<ProfileEvent> out;
  auto entries = log_.snapshot();
  out.reserve(entries.size());
  for (auto& e : entries) out.push_back(std::move(e.value));
  return out;
}

std::map<std::string, double> phase_durations(
    std::span<const ProfileEvent> records) {
  // Pair *_start with the next matching *_stop per entity.
  struct Open {
    double bootstrap = -1.0;
    double setup = -1.0;
    double exec = -1.0;
  };
  std::unordered_map<std::string, Open> open;
  std::map<std::string, double> out{
      {"bootstrap", 0.0}, {"exec_setup", 0.0}, {"running", 0.0}};
  for (const ProfileEvent& e : records) {
    auto& o = open[e.entity];
    if (e.event == events::kBootstrapStart) {
      o.bootstrap = e.time;
    } else if (e.event == events::kBootstrapStop && o.bootstrap >= 0.0) {
      out["bootstrap"] += e.time - o.bootstrap;
      o.bootstrap = -1.0;
    } else if (e.event == events::kExecSetupStart) {
      o.setup = e.time;
    } else if (e.event == events::kExecStart) {
      if (o.setup >= 0.0) {
        out["exec_setup"] += e.time - o.setup;
        o.setup = -1.0;
      }
      o.exec = e.time;
    } else if (e.event == events::kExecStop && o.exec >= 0.0) {
      out["running"] += e.time - o.exec;
      o.exec = -1.0;
    }
  }
  return out;
}

}  // namespace impress::hpc
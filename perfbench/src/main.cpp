// impress_perfbench: runs one benchmark workload and prints its metrics.
//
//   impress_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--tiny] [--spans-out FILE]
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics ({name: {value, unit}}), machine and failures. Exit status is 0
// when every output check passed, 1 when one failed, 2 on a usage error
// or a build that must not be measured. run.py wraps this binary; see
// ../README.md.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/lockdep.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: impress_perfbench --workload "
    "campaign_scale|fabric_failover|service_overload --seed N --seconds S "
    "--trace 0|1 [--tiny] [--spans-out FILE]\n";

/// Why this build must not produce numbers, or empty when it may.
std::string unfit_build() {
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
#ifndef __OPTIMIZE__
  return "built without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::string(PERFBENCH_SANITIZER).size() > 0) return "sanitizer build";
  if (PERFBENCH_COVERAGE) return "coverage build";
  if (IMPRESS_LOCKDEP_COMPILED_IN) return "lockdep build";
  return {};
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
      return "unknown";
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
  brand = brand.c_str();  // stop at the first NUL
  const auto first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--spans-out") {
      opt.spans_out = value();
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::cerr << kUsage;
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << kUsage;
    return 2;
  }
  if (const std::string why = unfit_build(); !why.empty()) {
    std::cerr << "impress_perfbench: refusing to report from this build: "
              << why << "\n";
    return 2;
  }

  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"campaign_scale", run_campaign_scale},
      {"fabric_failover", run_fabric_failover},
      {"service_overload", run_service_overload},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::cerr << "unknown workload '" << opt.workload << "'\n" << kUsage;
    return 2;
  }

  Report report;
  try {
    it->second(opt, report);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
    ++report.failed;
  }
  for (const auto& m : report.metrics)
    report.check(std::isfinite(m.value), m.name + " is not finite");
  if (report.attempted == 0) report.check(false, "no operation attempted");
  if (opt.trace) {
    std::printf("%-12s %8s %12s %12s\n", "layer", "spans", "total_s",
                "self_s");
    for (const auto& [layer, t] : report.spans.layer_times())
      std::printf("%-12s %8zu %12.6f %12.6f\n", layer.c_str(), t.spans,
                  t.total_s, t.self_s);
    if (!opt.spans_out.empty()) {
      report.check(report.spans.write_chrome_trace(opt.spans_out),
                   "cannot write span file " + opt.spans_out);
      std::printf("spans: %zu written to %s\n", report.spans.spans().size(),
                  opt.spans_out.c_str());
    }
  }

  std::ostringstream out;
  out << "{\"correct\":" << (report.failures.empty() ? "true" : "false")
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) continue;
    out << (first ? "" : ",") << json_string(m.name) << ":{\"value\":"
        << number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  out << "},\"machine\":{\"hardware_threads\":"
      << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << "},\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    out << (i == 0 ? "" : ",") << json_string(report.failures[i]);
  out << "]}";
  std::cout << out.str() << std::endl;
  return report.failures.empty() ? 0 : 1;
}

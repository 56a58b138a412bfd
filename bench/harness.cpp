#include "harness.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace impress::bench {

namespace {

std::string string_field(const common::Json& doc, const std::string& key) {
  return doc.contains(key) && doc.at(key).is_string() ? doc.at(key).as_string()
                                                      : "";
}

template <typename... Parts>
std::string concat(const Parts&... parts) {
  std::ostringstream s;
  (s << ... << parts);
  return s.str();
}

}  // namespace

std::optional<Options> parse_args(const std::string& bench, int argc,
                                  char** argv) {
  Options opt{.bench = bench, .out = "BENCH_" + bench + ".json"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      opt.check = argv[++i];
    } else {
      const auto program = std::filesystem::path(argv[0]).filename().string();
      std::cerr << "usage: " << program
                << " [--smoke] [--out FILE] [--check BASELINE]\n";
      return std::nullopt;
    }
  }
  return opt;
}

common::Json document(const Options& opt, const std::vector<Gate>& gates,
                      common::Json::Object results) {
  common::Json::Object gate_json;
  for (const auto& g : gates) {
    common::Json::Object entry{{"value", g.value},
                               {"vs_baseline", g.vs_baseline}};
    if (g.floor) entry["floor"] = *g.floor;
    gate_json[g.name] = std::move(entry);
  }
  return common::Json::Object{
      {"schema", kSchema},
      {"bench", opt.bench},
      {"mode", opt.smoke ? "smoke" : "full"},
      {"hardware_threads",
       static_cast<std::size_t>(std::thread::hardware_concurrency())},
      {"gates", std::move(gate_json)},
      {"results", std::move(results)},
  };
}

std::vector<std::string> check(const common::Json& current,
                               const common::Json& baseline) {
  const std::string schema = string_field(baseline, "schema");
  if (schema != kSchema)
    return {concat("baseline schema '", schema, "' is not ", kSchema,
                   "; regenerate the baseline")};
  const std::string bench = string_field(current, "bench");
  if (string_field(baseline, "bench") != bench)
    return {concat("baseline is for bench '", string_field(baseline, "bench"),
                   "', not '", bench, "'")};

  std::vector<std::string> failures;
  for (const auto& [name, gate] : current.at("gates").as_object()) {
    const double value = gate.at("value").as_number();
    if (gate.contains("floor") && value < gate.at("floor").as_number())
      failures.push_back(concat("gate '", name, "' ", value,
                                " under its floor ",
                                gate.at("floor").as_number()));
    const common::Json* base = nullptr;
    if (baseline.contains("gates") && baseline.at("gates").contains(name))
      base = &baseline.at("gates").at(name);
    if (base == nullptr || !base->contains("value")) {
      failures.push_back(concat("gate '", name,
                                "' missing from the baseline; regenerate "
                                "the baseline"));
    } else if (gate.at("vs_baseline").as_bool() &&
               value < kBaselineFraction * base->at("value").as_number()) {
      failures.push_back(concat("gate '", name, "' regressed: ", value, " < ",
                                kBaselineFraction, " * baseline ",
                                base->at("value").as_number()));
    }
  }
  return failures;
}

int finish(const Options& opt, const std::vector<Gate>& gates,
           common::Json::Object results) {
  for (const auto& g : gates)
    std::cout << "gate " << g.name << ": " << g.value << "\n";
  const common::Json doc = document(opt, gates, std::move(results));
  {
    std::ofstream out(opt.out);
    if (!(out << doc.dump(2) << "\n")) {
      std::cerr << "FAIL: cannot write " << opt.out << "\n";
      return 1;
    }
  }  // closed before --check may re-read the same path
  std::cout << "wrote " << opt.out << "\n";
  if (opt.check.empty()) return 0;

  std::ifstream in(opt.check);
  std::stringstream text;
  std::vector<std::string> failures;
  try {
    if (!(text << in.rdbuf())) throw std::runtime_error("missing or empty");
    failures = check(doc, common::Json::parse(text.str()));
  } catch (const std::exception& e) {
    failures = {"cannot read baseline " + opt.check + ": " + e.what()};
  }
  for (const auto& f : failures) std::cerr << "FAIL: " << f << "\n";
  if (!failures.empty()) return 1;
  std::cout << "check passed against " << opt.check << "\n";
  return 0;
}

}  // namespace impress::bench

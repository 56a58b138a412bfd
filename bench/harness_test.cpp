// The shared bench regression gate, exercised on in-memory documents.

#include "harness.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace impress::bench {
namespace {

const Options kOpt{.bench = "kernels", .smoke = true};

/// A run with one baseline-relative gate (also floored) and one
/// floor-only gate.
common::Json run(double ratio, double rate) {
  return document(
      kOpt,
      {{.name = "ratio", .value = ratio, .floor = 2.0, .vs_baseline = true},
       {.name = "rate", .value = rate, .floor = 1e5}},
      common::Json::Object{{"note", "reported only"}});
}

bool mentions(const std::vector<std::string>& failures,
              const std::string& text) {
  for (const auto& f : failures)
    if (f.find(text) != std::string::npos) return true;
  return false;
}

TEST(BenchHarness, DocumentLayout) {
  const auto doc = run(4.0, 1e6);
  EXPECT_EQ(doc.at("schema").as_string(), kSchema);
  EXPECT_EQ(doc.at("bench").as_string(), "kernels");
  EXPECT_EQ(doc.at("mode").as_string(), "smoke");
  EXPECT_TRUE(doc.at("hardware_threads").is_number());
  EXPECT_EQ(doc.at("gates").at("ratio").at("value").as_number(), 4.0);
  EXPECT_TRUE(doc.at("gates").at("ratio").at("vs_baseline").as_bool());
  EXPECT_FALSE(doc.at("gates").at("rate").at("vs_baseline").as_bool());
  EXPECT_EQ(doc.at("gates").at("rate").at("floor").as_number(), 1e5);
  EXPECT_EQ(doc.at("results").at("note").as_string(), "reported only");
}

TEST(BenchHarness, PassingRunHasNoFailures) {
  // 3.3 >= 0.8 * 4; the floor-only gate ignores its baseline value.
  EXPECT_TRUE(check(run(3.3, 2e5), run(4.0, 1e7)).empty());
  EXPECT_TRUE(check(run(4.0, 1e6), run(4.0, 1e6)).empty());
}

TEST(BenchHarness, RatioBelowBaselineFractionFails) {
  const auto failures = check(run(3.1, 1e6), run(4.0, 1e6));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_TRUE(mentions(failures, "gate 'ratio' regressed"));
}

TEST(BenchHarness, ValueUnderAbsoluteFloorFails) {
  const auto failures = check(run(4.0, 9e4), run(4.0, 9e4));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_TRUE(mentions(failures, "gate 'rate'"));
  EXPECT_TRUE(mentions(failures, "under its floor"));
  // A relative gate under its floor fails even when its baseline is lower.
  EXPECT_TRUE(mentions(check(run(1.5, 1e6), run(1.0, 1e6)),
                       "gate 'ratio' 1.5 under its floor 2"));
}

TEST(BenchHarness, GateMissingFromBaselineFails) {
  auto baseline = run(4.0, 1e6);
  baseline.as_object().at("gates").as_object().erase("rate");
  const auto failures = check(run(4.0, 1e6), baseline);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_TRUE(mentions(failures, "gate 'rate' missing from the baseline"));
  EXPECT_TRUE(mentions(failures, "regenerate"));
}

TEST(BenchHarness, SchemaOrBenchMismatchFails) {
  auto old_schema = run(4.0, 1e6);
  old_schema.as_object()["schema"] = "impress.bench_sim.v2";
  const auto schema_failures = check(run(4.0, 1e6), old_schema);
  ASSERT_EQ(schema_failures.size(), 1u);
  EXPECT_TRUE(mentions(schema_failures, "impress.bench_sim.v2"));

  auto other_bench = run(4.0, 1e6);
  other_bench.as_object()["bench"] = "sim";
  const auto bench_failures = check(run(4.0, 1e6), other_bench);
  ASSERT_EQ(bench_failures.size(), 1u);
  EXPECT_TRUE(mentions(bench_failures, "bench 'sim'"));

  // A document without a schema at all (e.g. an empty file's worth).
  EXPECT_FALSE(check(run(4.0, 1e6), common::Json::Object{}).empty());
}

}  // namespace
}  // namespace impress::bench

// Golden-trace regression: in simulated mode the span tree a campaign
// emits is a pure function of the seed. Two runs of the same seeded
// campaign must produce identical trees — same names, categories,
// nesting and attribute sets, in the same ordinal order. Structural
// invariants (which category nests under which) are pinned too, so a
// refactor that silently drops a nesting level fails here rather than in
// someone's Perfetto tab.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/session_dump.hpp"
#include "obs/export.hpp"
#include "protein/datasets.hpp"

namespace impress::core {
namespace {

std::vector<protein::DesignTarget> targets2() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("GT-A", 86, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("GT-B", 90, protein::alpha_synuclein().tail(10)));
  return out;
}

CampaignResult traced_run(std::uint64_t seed) {
  auto cfg = im_rp_campaign(seed);
  cfg.session.enable_tracing = true;
  cfg.session.enable_metrics = true;
  const auto targets = targets2();
  return Campaign(cfg).run(targets);
}

/// Index of each span id within the snapshot (open order).
std::map<obs::SpanId, std::size_t> index_of(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<obs::SpanId, std::size_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].id] = i;
  return out;
}

std::size_t depth_of(const std::vector<obs::SpanRecord>& spans,
                     const obs::SpanRecord& span) {
  const auto by_id = index_of(spans);
  std::size_t depth = 1;
  obs::SpanId parent = span.parent;
  while (parent != 0 && depth <= spans.size()) {
    ++depth;
    parent = spans[by_id.at(parent)].parent;
  }
  return depth;
}

TEST(GoldenTrace, SeededCampaignReplaysTheIdenticalSpanTree) {
  const auto a = traced_run(42);
  const auto b = traced_run(42);
  ASSERT_FALSE(a.trace.empty());
  ASSERT_EQ(a.trace.size(), b.trace.size());

  const auto index_a = index_of(a.trace);
  const auto index_b = index_of(b.trace);
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const auto& sa = a.trace[i];
    const auto& sb = b.trace[i];
    EXPECT_EQ(sa.name, sb.name) << "span " << i;
    EXPECT_EQ(sa.category, sb.category) << "span " << i;
    EXPECT_EQ(sa.attrs, sb.attrs) << "span " << i;
    // Parent linkage compared by ordinal, not raw id.
    const std::size_t pa =
        sa.parent == 0 ? SIZE_MAX : index_a.at(sa.parent);
    const std::size_t pb =
        sb.parent == 0 ? SIZE_MAX : index_b.at(sb.parent);
    EXPECT_EQ(pa, pb) << "span " << i << " (" << sa.name << ")";
    // Simulated time is part of the determinism contract.
    EXPECT_DOUBLE_EQ(sa.start, sb.start) << "span " << i;
    EXPECT_DOUBLE_EQ(sa.end, sb.end) << "span " << i;
  }

  // The metrics snapshot replays exactly too.
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(GoldenTrace, StructuralInvariantsOfTheSpanTree) {
  const auto r = traced_run(42);
  const auto& spans = r.trace;
  ASSERT_FALSE(spans.empty());
  const auto by_id = index_of(spans);

  // Exactly one campaign root, and it is the first span opened.
  EXPECT_EQ(spans[0].category, obs::categories::kCampaign);
  EXPECT_EQ(spans[0].name, "campaign.IM-RP");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                          [](const auto& s) {
                            return s.category == obs::categories::kCampaign;
                          }),
            1);

  std::size_t max_depth = 0;
  std::size_t tasks = 0;
  std::size_t attempts = 0;
  for (const auto& s : spans) {
    max_depth = std::max(max_depth, depth_of(spans, s));
    ASSERT_TRUE(s.parent == 0 || by_id.count(s.parent))
        << s.name << ": dangling parent";
    const std::string parent_cat =
        s.parent == 0 ? "" : spans[by_id.at(s.parent)].category;
    if (s.category == obs::categories::kPipeline) {
      EXPECT_EQ(parent_cat, obs::categories::kCampaign) << s.name;
    } else if (s.category == obs::categories::kStage) {
      EXPECT_EQ(parent_cat, obs::categories::kPipeline) << s.name;
    } else if (s.category == obs::categories::kTask) {
      ++tasks;
      EXPECT_EQ(parent_cat, obs::categories::kStage) << s.name;
    } else if (s.category == obs::categories::kAttempt) {
      ++attempts;
      EXPECT_EQ(parent_cat, obs::categories::kTask) << s.name;
    }
    // Closed spans must not end before they start.
    if (s.closed()) {
      EXPECT_GE(s.end, s.start);
    }
  }
  EXPECT_GE(max_depth, 4u) << "campaign -> pipeline -> stage -> task gone?";
  EXPECT_GT(tasks, 0u);
  EXPECT_GE(attempts, tasks) << "every task runs at least one attempt";

  // Every task span the runtime opened was closed with an outcome attr.
  for (const auto& s : spans)
    if (s.category == obs::categories::kTask) {
      EXPECT_TRUE(s.closed()) << s.name;
      EXPECT_TRUE(std::any_of(
          s.attrs.begin(), s.attrs.end(),
          [](const auto& kv) { return kv.first == "outcome"; }))
          << s.name;
    }

  // Counters cross-check the tree: one task span per submitted task.
  EXPECT_EQ(r.metrics.counter("impress_tasks_submitted"), tasks);
}

TEST(GoldenTrace, RetriedFoldShowsMultipleAttemptsUnderOneTask) {
  // fold_retries > 0 for this seed; its task must carry > 1 attempt span.
  const auto r = traced_run(42);
  if (r.task_retries + r.fold_retries == 0)
    GTEST_SKIP() << "seed exercises no retries; nothing to pin here";
  std::map<obs::SpanId, std::size_t> attempts_per_task;
  for (const auto& s : r.trace)
    if (s.category == obs::categories::kAttempt)
      ++attempts_per_task[s.parent];
  if (r.task_retries > 0) {
    std::size_t multi = 0;
    for (const auto& [task, n] : attempts_per_task)
      if (n > 1) ++multi;
    EXPECT_GT(multi, 0u)
        << "runtime retries must appear as sibling attempt spans";
  }
}

TEST(GoldenTrace, SessionDumpRoundTripsTheHarvest) {
  const auto r = traced_run(42);
  const auto doc = common::Json::parse(to_json(r).dump());
  const auto back = campaign_result_from_json(doc);
  ASSERT_EQ(back.trace.size(), r.trace.size());
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_EQ(back.trace[i].id, r.trace[i].id);
    EXPECT_EQ(back.trace[i].name, r.trace[i].name);
    EXPECT_EQ(back.trace[i].attrs, r.trace[i].attrs);
  }
  EXPECT_EQ(back.metrics, r.metrics);
}

TEST(GoldenTrace, ChromeTraceExportIsWellFormed) {
  const auto r = traced_run(42);
  const auto doc =
      common::Json::parse(obs::chrome_trace_json(r.trace, 2));
  const auto& events = doc.at("traceEvents").as_array();
  EXPECT_GT(events.size(), r.trace.size());  // spans + track metadata
  std::size_t complete = 0;
  std::size_t metadata = 0;
  for (const auto& ev : events) {
    const auto ph = ev.at("ph").as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_GE(ev.at("dur").as_number(), 0.0);
    } else {
      EXPECT_EQ(ph, "M");
      ++metadata;
    }
  }
  EXPECT_EQ(complete, r.trace.size());
  EXPECT_EQ(metadata, 1u + static_cast<std::size_t>(r.root_pipelines) +
                          r.subpipelines);
}

}  // namespace
}  // namespace impress::core

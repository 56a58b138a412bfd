// Persistence-layer guarantees shared by every artifact writer: atomic
// (crash-consistent) file replacement, RFC-4180 CSV escaping, and schema
// versioning across the v1 session dump / v2 checkpoint split.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/fs.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/session_dump.hpp"
#include "support/temp_dir.hpp"

namespace impress::core {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_support::make_temp_dir("impress_persist_");
  }
  void TearDown() override {
    common::set_atomic_write_test_hook(nullptr);
    fs::remove_all(dir_);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

using Persistence = TempDir;

TEST_F(Persistence, AtomicWriteCreatesAndReplaces) {
  const auto p = path("file.txt");
  common::write_file_atomic(p, "first");
  EXPECT_EQ(slurp(p), "first");
  common::write_file_atomic(p, "second");
  EXPECT_EQ(slurp(p), "second");
  // No temp-file droppings after a clean pair of writes.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(Persistence, CrashDuringWritePreservesPreviousContents) {
  const auto p = path("file.txt");
  common::write_file_atomic(p, "durable");

  // Simulate the process dying after the temp file is written but before
  // the rename publishes it.
  common::set_atomic_write_test_hook(
      [](const std::string&) { throw std::runtime_error("killed"); });
  EXPECT_THROW(common::write_file_atomic(p, "torn"), std::runtime_error);
  EXPECT_EQ(slurp(p), "durable");

  // The next (uninterrupted) write goes through normally.
  common::set_atomic_write_test_hook(nullptr);
  common::write_file_atomic(p, "recovered");
  EXPECT_EQ(slurp(p), "recovered");
}

TEST_F(Persistence, CrashDuringSessionDumpKeepsPriorDumpLoadable) {
  // Regression for the original non-atomic writer: a crash mid-dump used
  // to truncate the archive. Now the previous dump must survive verbatim.
  CampaignResult first;
  first.name = "persist-test";
  first.targets = 1;
  TrajectoryResult t;
  t.pipeline_id = "P1";
  t.target_name = "T1";
  t.history.push_back(
      IterationRecord{.cycle = 1, .metrics = {}, .sequence = "ACDEFG"});
  first.trajectories.push_back(t);

  const auto p = path("dump.json");
  save_session_dump(first, p);

  auto second = first;
  second.name = "persist-test-2";
  common::set_atomic_write_test_hook(
      [](const std::string&) { throw std::runtime_error("killed"); });
  EXPECT_THROW(save_session_dump(second, p), std::runtime_error);
  common::set_atomic_write_test_hook(nullptr);

  const auto loaded = load_session_dump(p);
  EXPECT_EQ(loaded.name, "persist-test");
  ASSERT_EQ(loaded.trajectories.size(), 1u);
  EXPECT_EQ(loaded.trajectories[0].history.at(0).sequence, "ACDEFG");
}

TEST(CsvEscape, QuotesHostileFields) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(csv_escape("cr\rlf"), "\"cr\rlf\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, TrajectoriesCsvSurvivesHostileTargetName) {
  CampaignResult result;
  TrajectoryResult t;
  t.pipeline_id = "P,1";
  t.target_name = "PDZ \"domain\", variant\n2";
  t.history.push_back(
      IterationRecord{.cycle = 1, .metrics = {}, .sequence = "ACDE"});
  result.trajectories.push_back(t);

  const auto csv = trajectories_csv(result);
  // Exactly one record row (the embedded newline is inside quotes), and
  // the hostile fields appear in their RFC-4180 escaped forms.
  EXPECT_NE(csv.find("\"P,1\""), std::string::npos);
  EXPECT_NE(csv.find("\"PDZ \"\"domain\"\", variant\n2\""), std::string::npos);
  // Header + one logical record; quoted-aware field count on the record.
  const auto header_end = csv.find('\n');
  const std::string record = csv.substr(header_end + 1);
  std::size_t fields = 1;
  bool quoted = false;
  for (char c : record) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++fields;
  }
  EXPECT_EQ(fields, 11u);
}

TEST_F(Persistence, SessionDumpSchemaStaysV1) {
  // Checkpoints are schema v2 under a distinct kind; the finished-run
  // session dump must stay loadable as v1 (forward compatibility for
  // archives written before checkpoints existed).
  CampaignResult result;
  result.name = "v1";
  const auto p = path("dump.json");
  save_session_dump(result, p);
  const auto doc = common::Json::parse(slurp(p));
  EXPECT_EQ(static_cast<int>(doc.at("schema_version").as_number()), 1);
  EXPECT_EQ(load_session_dump(p).name, "v1");
}

TEST_F(Persistence, CheckpointLoaderRejectsSessionDumps) {
  CampaignResult result;
  result.name = "v1";
  const auto p = path("dump.json");
  save_session_dump(result, p);
  EXPECT_THROW((void)load_checkpoint(p), std::invalid_argument);
}

}  // namespace
}  // namespace impress::core

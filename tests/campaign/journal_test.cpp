// Journal round trip, crash-tail tolerance and strictness everywhere else.
#include "campaign/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "campaign/report.hpp"

namespace solsched::campaign {
namespace {

ShardRecord sample_record(std::size_t shard) {
  ShardRecord rec;
  rec.shard = shard;
  rec.key = "ecg/s" + std::to_string(shard) + "/i0.5";
  rec.workload = "ecg";
  rec.seed = shard;
  rec.intensity = 0.5;
  rec.artifact_key = 0xdeadbeefULL;
  rec.artifact_hit = shard % 2 == 0;
  // Full-width value: the hex-string encoding must round-trip bits a JSON
  // number (via double) would lose.
  rec.controller_fingerprint = 0xFEDCBA9876543210ULL + shard;
  ShardRow row;
  row.algo = "Proposed";
  row.dmr = 0.0625 + 1e-17 * static_cast<double>(shard);  // Exercise %.17g.
  row.energy_utilization = 0.71234567890123456;
  row.migration_efficiency = 0.5;
  row.brownouts = 3;
  row.solar_j = 1234.5678901234567;
  row.served_j = 1000.0 / 3.0;
  row.loss_j = 7.25;
  row.power_failure_slots = 11;
  row.fallbacks = 2;
  rec.rows.push_back(row);
  return rec;
}

std::string fresh_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(Journal, AppendLoadRoundTripIsExact) {
  const std::string path = fresh_path("journal_roundtrip.jsonl");
  {
    Journal journal(path, 0x1234);
    journal.append(sample_record(0));
    journal.append(sample_record(1));
  }
  const Journal::Recovered rec = Journal::load(path, 0x1234);
  EXPECT_EQ(rec.dropped_partial, 0u);
  ASSERT_EQ(rec.records.size(), 2u);
  const ShardRecord& a = rec.records[0];
  const ShardRecord expect = sample_record(0);
  EXPECT_EQ(a.key, expect.key);
  EXPECT_EQ(a.artifact_key, expect.artifact_key);
  EXPECT_TRUE(a.artifact_hit);
  EXPECT_EQ(a.controller_fingerprint, expect.controller_fingerprint);
  ASSERT_EQ(a.rows.size(), 1u);
  // Bit-exact double round trip (%.17g out, strtod in).
  EXPECT_EQ(a.rows[0].dmr, expect.rows[0].dmr);
  EXPECT_EQ(a.rows[0].served_j, expect.rows[0].served_j);
  EXPECT_EQ(a.rows[0].energy_utilization, expect.rows[0].energy_utilization);
  EXPECT_EQ(a.rows[0].brownouts, 3u);
}

TEST(Journal, ReopenAppendsWithoutSecondHeader) {
  const std::string path = fresh_path("journal_reopen.jsonl");
  { Journal(path, 7).append(sample_record(0)); }
  { Journal(path, 7).append(sample_record(1)); }
  const Journal::Recovered rec = Journal::load(path, 7);
  EXPECT_EQ(rec.records.size(), 2u);
  std::ifstream file(path);
  std::string line;
  std::size_t headers = 0;
  while (std::getline(file, line))
    if (line.find("spec_digest") != std::string::npos) ++headers;
  EXPECT_EQ(headers, 1u);
}

TEST(Journal, TruncatedTailIsDroppedAndRecoverable) {
  const std::string path = fresh_path("journal_torn.jsonl");
  {
    Journal journal(path, 9);
    journal.append(sample_record(0));
    journal.append(sample_record(1));
  }
  std::ofstream(path, std::ios::app) << "{\"shard\": 2, \"key\": \"tor";
  const Journal::Recovered rec = Journal::load(path, 9);
  EXPECT_EQ(rec.dropped_partial, 1u);
  ASSERT_EQ(rec.records.size(), 2u);
  // Reopening truncates the torn fragment before appending, so the resumed
  // shard's record lands on its own line and the journal is whole again.
  { Journal(path, 9).append(sample_record(2)); }
  const Journal::Recovered healed = Journal::load(path, 9);
  EXPECT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.dropped_partial, 0u);
}

TEST(Journal, GarbageMidFileIsFatal) {
  const std::string path = fresh_path("journal_garbage.jsonl");
  { Journal(path, 9).append(sample_record(0)); }
  std::ofstream(path, std::ios::app) << "not json\n";
  { Journal(path, 9).append(sample_record(1)); }
  EXPECT_THROW(Journal::load(path, 9), std::runtime_error);
}

// Without a header only a single torn line can be a crash (the header
// write itself); a file of several malformed lines is not a journal, and
// reading it as empty would let the next run append records after garbage.
TEST(Journal, AllGarbageFileIsFatal) {
  const std::string path = fresh_path("journal_all_garbage.jsonl");
  std::ofstream(path) << "garbage one\ngarbage two\ngarbage three\n";
  EXPECT_THROW(Journal::load(path, 9), std::runtime_error);

  std::ofstream(path, std::ios::trunc) << "{\"journal\": \"solsched-camp";
  const Journal::Recovered torn = Journal::load(path, 9);
  EXPECT_EQ(torn.dropped_partial, 1u);
  EXPECT_TRUE(torn.records.empty());
}

TEST(Journal, SpecDigestMismatchIsFatal) {
  const std::string path = fresh_path("journal_digest.jsonl");
  { Journal(path, 1).append(sample_record(0)); }
  EXPECT_THROW(Journal::load(path, 2), std::runtime_error);
  EXPECT_EQ(Journal::load(path, 0).records.size(), 1u);  // 0 skips the check.
  EXPECT_EQ(load_journal_records(path).size(), 1u);
}

TEST(Journal, DuplicateShardIsFatal) {
  const std::string path = fresh_path("journal_dup.jsonl");
  {
    Journal journal(path, 9);
    journal.append(sample_record(3));
    journal.append(sample_record(3));
  }
  EXPECT_THROW(Journal::load(path, 9), std::runtime_error);
}

TEST(Journal, MissingFileIsFatal) {
  EXPECT_THROW(Journal::load("/no_such_dir_xyz/journal.jsonl", 0),
               std::runtime_error);
}

// Golden pin: the exact bytes of one journal line (%.17g doubles, quoted
// hex u64s, fixed key order). Journals on disk must stay readable and
// byte-comparable across refactors of the shared formatters.
TEST(Journal, RenderedRecordLineIsPinned) {
  EXPECT_EQ(sample_record(3).to_json(),
            "{\"shard\": 3, \"key\": \"ecg/s3/i0.5\", \"workload\": \"ecg\", "
            "\"seed\": 3, \"intensity\": 0.5, \"artifact_key\": 3735928559, "
            "\"artifact_hit\": false, "
            "\"controller_fp\": \"fedcba9876543213\", "
            "\"rows\": [{\"algo\": \"Proposed\", "
            "\"dmr\": 0.062500000000000028, "
            "\"energy_utilization\": 0.71234567890123457, "
            "\"migration_efficiency\": 0.5, \"brownouts\": 3, "
            "\"solar_j\": 1234.5678901234567, "
            "\"served_j\": 333.33333333333331, "
            "\"loss_j\": 7.25, \"power_failure_slots\": 11, "
            "\"fallbacks\": 2}]}");
}

}  // namespace
}  // namespace solsched::campaign

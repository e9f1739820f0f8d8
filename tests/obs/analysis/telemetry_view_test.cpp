// Reader side of the live-telemetry layer: status.json parsing, the
// watcher's exit-code / staleness contract, dashboard rendering, and the
// telemetry.jsonl loader's torn-tail forgiveness.
#include "obs/analysis/telemetry_view.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace solsched::obs::analysis {
namespace {

// A status.json exactly as TelemetryBus::write_status emits it.
const char* kStatus = R"({
  "status": "solsched-campaign-status-v1",
  "spec_digest": "00000000deadbeef",
  "state": "running",
  "wall_ms": 1000000,
  "elapsed_ms": 45000,
  "threads": 4,
  "heartbeat_ms": 1000,
  "stall_ms": 30000,
  "heartbeats": 45,
  "shards": {"total": 64, "done": 20, "resumed": 4, "executed": 16,
             "in_flight": 4, "failed": 1, "stalled": 2},
  "cache": {"artifact_hits": 8, "hit_rate": 0.5, "trainings": 2},
  "throughput_shards_per_min": 21.3,
  "eta_s": 124,
  "workloads": [
    {"workload": "ecg", "total": 32, "done": 12, "mean_shard_ms": 2500,
     "eta_s": 50},
    {"workload": "wam", "total": 32, "done": 8, "mean_shard_ms": 3000,
     "eta_s": 74}
  ]
})";

TEST(TelemetryView, ParseStatusReadsEveryField) {
  const CampaignStatus s = parse_status(kStatus);
  EXPECT_EQ(s.spec_digest, "00000000deadbeef");
  EXPECT_EQ(s.state, "running");
  EXPECT_EQ(s.wall_ms, 1000000u);
  EXPECT_EQ(s.elapsed_ms, 45000u);
  EXPECT_EQ(s.threads, 4u);
  EXPECT_EQ(s.heartbeat_ms, 1000u);
  EXPECT_EQ(s.stall_ms, 30000u);
  EXPECT_EQ(s.heartbeats, 45u);
  EXPECT_EQ(s.total, 64u);
  EXPECT_EQ(s.done, 20u);
  EXPECT_EQ(s.resumed, 4u);
  EXPECT_EQ(s.executed, 16u);
  EXPECT_EQ(s.in_flight, 4u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.stalled, 2u);
  EXPECT_EQ(s.artifact_hits, 8u);
  EXPECT_DOUBLE_EQ(s.hit_rate, 0.5);
  EXPECT_EQ(s.trainings, 2u);
  EXPECT_DOUBLE_EQ(s.throughput_shards_per_min, 21.3);
  EXPECT_DOUBLE_EQ(s.eta_s, 124.0);
  ASSERT_EQ(s.workloads.size(), 2u);
  EXPECT_EQ(s.workloads[0].workload, "ecg");
  EXPECT_EQ(s.workloads[0].total, 32u);
  EXPECT_EQ(s.workloads[0].done, 12u);
  EXPECT_DOUBLE_EQ(s.workloads[1].mean_shard_ms, 3000.0);
}

TEST(TelemetryView, ParseStatusRejectsWrongOrMissingMagic) {
  EXPECT_THROW(parse_status("{\"status\": \"other-magic\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_status("{\"state\": \"running\"}"), std::runtime_error);
  EXPECT_THROW(parse_status("not json"), std::runtime_error);
}

// The watcher's exit contract: 0 success, 1 failure, 3 "resume me".
TEST(TelemetryView, StatusExitCodePerState) {
  CampaignStatus s;
  s.state = "finished";
  EXPECT_EQ(status_exit_code(s), 0);
  s.state = "failed";
  EXPECT_EQ(status_exit_code(s), 1);
  s.state = "stopped";
  EXPECT_EQ(status_exit_code(s), 3);
  s.state = "running";  // Writer gone: incomplete, so resume.
  EXPECT_EQ(status_exit_code(s), 3);
}

// kill -9 leaves a "running" snapshot forever; the watcher ages it out
// after max(stall window, five heartbeats) of no rewrites.
TEST(TelemetryView, StalenessWindowAgesOutDeadWriters) {
  CampaignStatus s = parse_status(kStatus);  // running, wall_ms=1000000.
  EXPECT_EQ(s.stall_ms, 30000u);             // > 5 * heartbeat_ms.
  EXPECT_FALSE(status_is_stale(s, 1000000 + 30000));  // At the window edge.
  EXPECT_TRUE(status_is_stale(s, 1000000 + 30001));
  EXPECT_FALSE(status_is_stale(s, 0));  // No clock given: cannot judge.

  s.stall_ms = 0;  // Five missed heartbeats dominate.
  EXPECT_FALSE(status_is_stale(s, 1000000 + 5000));
  EXPECT_TRUE(status_is_stale(s, 1000000 + 5001));

  s.state = "finished";  // Terminal snapshots never go stale.
  EXPECT_FALSE(status_is_stale(s, 2000000));
}

TEST(TelemetryView, RenderStatusPlainHasNoEscapesAndAllSections) {
  const CampaignStatus s = parse_status(kStatus);
  const std::string plain = render_status(s, /*plain=*/true);
  EXPECT_EQ(plain.find('\033'), std::string::npos);
  EXPECT_NE(plain.find("campaign 00000000deadbeef"), std::string::npos);
  EXPECT_NE(plain.find("state running"), std::string::npos);
  EXPECT_NE(plain.find("20/64 (31.2%)"), std::string::npos);
  EXPECT_NE(plain.find("stalled 2"), std::string::npos);
  EXPECT_NE(plain.find("throughput 21.30 shards/min"), std::string::npos);
  EXPECT_NE(plain.find("eta 2m04s"), std::string::npos);
  EXPECT_NE(plain.find("cache hit-rate 50%"), std::string::npos);
  EXPECT_NE(plain.find("ecg"), std::string::npos);
  EXPECT_NE(plain.find("wam"), std::string::npos);
  // ANSI mode colors the state; stale running snapshots get flagged.
  EXPECT_NE(render_status(s, false).find('\033'), std::string::npos);
  EXPECT_NE(render_status(s, true, 2000000).find("(stale: writer gone?)"),
            std::string::npos);
  EXPECT_EQ(render_status(s, true, 1000001).find("stale"), std::string::npos);
}

const char* kHeader =
    "{\"telemetry\": \"solsched-campaign-telemetry-v1\", "
    "\"spec_digest\": \"00000000deadbeef\"}\n";

// Degenerate files a crash (or a watcher racing the first write) leaves
// behind: zero-length, header-only, and a stale "running" snapshot from a
// process that is long dead.
TEST(TelemetryView, ZeroLengthFilesAreRefusedOrEmpty) {
  // A zero-length status.json cannot carry the magic: the reader must
  // refuse it, not render a zeroed dashboard.
  EXPECT_THROW(parse_status(""), std::runtime_error);
  EXPECT_THROW(parse_status("{}"), std::runtime_error);
  // A zero-length telemetry.jsonl is a valid (empty) log: the bus opens
  // the file before its first fsync'd header write.
  const TelemetryLog empty = load_telemetry("");
  EXPECT_TRUE(empty.lines.empty());
  EXPECT_TRUE(empty.spec_digest.empty());
  EXPECT_EQ(empty.dropped_partial, 0u);
}

TEST(TelemetryView, HeaderOnlyTelemetryIsAnEmptyLog) {
  const TelemetryLog log = load_telemetry(kHeader);
  EXPECT_TRUE(log.lines.empty());
  EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  EXPECT_EQ(log.dropped_partial, 0u);
  EXPECT_TRUE(log.census().empty());
}

TEST(TelemetryView, StaleRunningSnapshotFromDeadProcessFlagsAndExits) {
  const CampaignStatus s = parse_status(kStatus);  // running, wall 1000000.
  // Hours later the writer is clearly dead: stale, rendered as such, and
  // the watcher's verdict is "resume me" (3), never "finished".
  const std::uint64_t hours_later = 1000000 + 7200000;
  EXPECT_TRUE(status_is_stale(s, hours_later));
  EXPECT_NE(render_status(s, true, hours_later).find("stale"),
            std::string::npos);
  EXPECT_EQ(status_exit_code(s), 3);
}

TEST(TelemetryView, LoadTelemetryParsesLinesAndCensus) {
  const std::string text =
      std::string(kHeader) +
      "{\"seq\": 0, \"ts_ms\": 5, \"type\": \"campaign.start\", "
      "\"detail\": \"8 shards, 0 resumed\"}\n"
      "{\"seq\": 1, \"ts_ms\": 6, \"type\": \"shard.claimed\", \"shard\": 3, "
      "\"workload\": \"ecg\", \"detail\": \"cafe0000cafe0000\"}\n"
      "{\"seq\": 2, \"ts_ms\": 7, \"type\": \"shard.done\", \"shard\": 3, "
      "\"workload\": \"ecg\"}\n";
  const TelemetryLog log = load_telemetry(text);
  EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  EXPECT_EQ(log.dropped_partial, 0u);
  ASSERT_EQ(log.lines.size(), 3u);
  EXPECT_EQ(log.lines[0].type, "campaign.start");
  EXPECT_FALSE(log.lines[0].has_shard);
  EXPECT_TRUE(log.lines[1].has_shard);
  EXPECT_EQ(log.lines[1].shard, 3u);
  EXPECT_EQ(log.lines[1].workload, "ecg");
  EXPECT_EQ(log.lines[1].detail, "cafe0000cafe0000");
  const auto census = log.census();
  EXPECT_EQ(census.at("shard.claimed"), 1u);
  EXPECT_EQ(census.at("shard.done"), 1u);
}

// Only the final line may be torn (appends are sequential and fsync'd);
// mid-file garbage means corruption, not a crash, and must throw.
TEST(TelemetryView, LoadTelemetryForgivesOnlyTornTail) {
  const std::string good =
      std::string(kHeader) +
      "{\"seq\": 0, \"ts_ms\": 5, \"type\": \"campaign.start\"}\n";
  const TelemetryLog torn =
      load_telemetry(good + "{\"seq\": 1, \"type\": \"shard.cl");
  EXPECT_EQ(torn.dropped_partial, 1u);
  EXPECT_EQ(torn.lines.size(), 1u);

  EXPECT_THROW(
      load_telemetry(good + "garbage\n{\"seq\": 1, \"ts_ms\": 6, "
                            "\"type\": \"heartbeat\"}\n"),
      std::runtime_error);
  EXPECT_THROW(load_telemetry(good + "garbage\ngarbage\n"),
               std::runtime_error);
}

TEST(TelemetryView, LoadTelemetryTornHeaderAndBadHeader) {
  // A crash can even cut the header short: everything so far is forgiven.
  const TelemetryLog torn = load_telemetry("{\"telemetry\": \"solsch");
  EXPECT_EQ(torn.dropped_partial, 1u);
  EXPECT_TRUE(torn.lines.empty());
  EXPECT_TRUE(load_telemetry("").lines.empty());
  // A *valid* first line with the wrong magic is not a telemetry stream.
  EXPECT_THROW(load_telemetry("{\"telemetry\": \"other\"}\n"),
               std::runtime_error);
}

// Only one torn line is a crash; a headerless file of several malformed
// lines is not a telemetry stream and must not read as empty.
TEST(TelemetryView, LoadTelemetryRejectsAllGarbage) {
  EXPECT_THROW(load_telemetry("garbage one\ngarbage two\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace solsched::obs::analysis

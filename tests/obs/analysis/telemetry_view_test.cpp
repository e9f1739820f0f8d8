// Reader side of the live-telemetry layer: status.json parsing (the shared
// envelope and the campaign body), the watcher's exit-code / staleness
// contract and watch loop, dashboard rendering, and the telemetry.jsonl
// loader's torn-tail forgiveness.
#include "obs/analysis/telemetry_view.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace solsched::obs::analysis {
namespace {

// A status.json in the shape TelemetryBus::write_status emits.
const char* kStatus = R"({
  "status": "solsched-status-v2",
  "kind": "campaign",
  "state": "running",
  "wall_ms": 1000000,
  "stale_after_ms": 30000,
  "spec_digest": "00000000deadbeef",
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
  const CampaignStatus s = parse_campaign_status(kStatus);
  EXPECT_EQ(s.kind, "campaign");
  EXPECT_EQ(s.state, RunState::kRunning);
  EXPECT_EQ(s.wall_ms, 1000000u);
  EXPECT_EQ(s.stale_after_ms, 30000u);
  EXPECT_EQ(s.spec_digest, "00000000deadbeef");
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

// The same parse fed the writer's own bytes: every body field the bus
// publishes survives the round trip, and the envelope carries the window
// the bus declared, max(stall window, five heartbeats).
TEST(TelemetryView, ParseStatusReadsEveryFieldTheBusWrites) {
  const std::string dir = ::testing::TempDir() + "/view_bus_roundtrip";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TelemetryBus::Options opt;
  opt.dir = dir;
  opt.spec_digest = "00000000deadbeef";
  opt.heartbeat_ms = 1000;
  opt.stall_ms = 30000;
  opt.threads = 4;
  TelemetryBus bus(opt);
  bus.campaign_start(64, {{"ecg", 32}, {"wam", 32}}, {{"ecg", 4}});
  bus.train_start("ecg");
  bus.shard_claimed(7, "ecg", "cafe0000cafe0000");
  bus.shard_done(7, true);
  bus.shard_claimed(8, "wam", "d1d1d1d1d1d1d1d1");
  bus.shard_failed(8, "boom");
  bus.shard_claimed(9, "wam", "d1d1d1d1d1d1d1d1");
  bus.tick();

  const CampaignStatus s = parse_campaign_status(bus.status_json());
  EXPECT_EQ(s.kind, "campaign");
  EXPECT_EQ(s.state, RunState::kRunning);
  EXPECT_GT(s.wall_ms, 0u);
  EXPECT_EQ(s.stale_after_ms, 30000u);
  EXPECT_EQ(s.spec_digest, "00000000deadbeef");
  EXPECT_EQ(s.threads, 4u);
  EXPECT_EQ(s.heartbeat_ms, 1000u);
  EXPECT_EQ(s.stall_ms, 30000u);
  EXPECT_EQ(s.heartbeats, 1u);
  EXPECT_EQ(s.total, 64u);
  EXPECT_EQ(s.done, 5u);
  EXPECT_EQ(s.resumed, 4u);
  EXPECT_EQ(s.executed, 1u);
  EXPECT_EQ(s.in_flight, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.stalled, 0u);
  EXPECT_EQ(s.artifact_hits, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate, 1.0);
  EXPECT_EQ(s.trainings, 1u);
  EXPECT_GE(s.throughput_shards_per_min, 0.0);
  EXPECT_GE(s.eta_s, 0.0);
  ASSERT_EQ(s.workloads.size(), 2u);
  EXPECT_EQ(s.workloads[0].workload, "ecg");
  EXPECT_EQ(s.workloads[0].total, 32u);
  EXPECT_EQ(s.workloads[0].done, 5u);
  EXPECT_GE(s.workloads[0].mean_shard_ms, 0.0);
  EXPECT_EQ(s.workloads[1].workload, "wam");
  EXPECT_EQ(s.workloads[1].done, 0u);

  // A short stall window leaves five heartbeats as the declared window.
  opt.stall_ms = 50;
  opt.dir = dir + "/short";
  std::filesystem::create_directories(opt.dir);
  EXPECT_EQ(parse_campaign_status(TelemetryBus(opt).status_json())
                .stale_after_ms,
            5000u);
}

TEST(TelemetryView, ParseStatusRejectsWrongOrMissingMagic) {
  EXPECT_THROW(parse_campaign_status("{\"status\": \"other-magic\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_status("{\"state\": \"running\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_status("not json"), std::runtime_error);
  // A serve status is not a campaign status, and an unknown state word is
  // not a state.
  EXPECT_THROW(parse_campaign_status(R"({"status": "solsched-status-v2",
      "kind": "serve", "state": "running"})"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_status(R"({"status": "solsched-status-v2",
      "kind": "campaign", "state": "starting"})"),
               std::runtime_error);
}

// A v1 file (written before the shared envelope) is refused with a message
// that names its retired schema.
TEST(TelemetryView, ParseStatusRefusesTheV1Schema) {
  for (const char* v1 : {"solsched-campaign-status-v1", "solsched-serve-v1"}) {
    try {
      parse_campaign_status(std::string("{\"status\": \"") + v1 +
                            "\", \"state\": \"running\"}");
      ADD_FAILURE() << v1 << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(v1), std::string::npos) << e.what();
    }
  }
}

// The watcher's exit contract: 0 success, 1 failure, 3 "resume me".
TEST(TelemetryView, StatusExitCodePerState) {
  StatusHeader s;
  s.state = RunState::kFinished;
  EXPECT_EQ(status_exit_code(s), 0);
  s.state = RunState::kFailed;
  EXPECT_EQ(status_exit_code(s), 1);
  s.state = RunState::kStopped;
  EXPECT_EQ(status_exit_code(s), 3);
  s.state = RunState::kRunning;  // Writer gone: incomplete, so resume.
  EXPECT_EQ(status_exit_code(s), 3);
}

// kill -9 leaves a "running" snapshot forever; the watcher ages it out
// once it is older than the window its writer declared.
TEST(TelemetryView, StalenessWindowAgesOutDeadWriters) {
  CampaignStatus s = parse_campaign_status(kStatus);  // running, wall 1000000.
  EXPECT_EQ(s.stale_after_ms, 30000u);
  EXPECT_FALSE(is_stale(s, 1000000 + 30000));  // At the window edge.
  EXPECT_TRUE(is_stale(s, 1000000 + 30001));
  EXPECT_FALSE(is_stale(s, 0));  // No clock given: cannot judge.

  s.stale_after_ms = 5000;  // A writer with a shorter declared window.
  EXPECT_FALSE(is_stale(s, 1000000 + 5000));
  EXPECT_TRUE(is_stale(s, 1000000 + 5001));

  s.stale_after_ms = 0;  // No periodic rewrite promised: never stale.
  EXPECT_FALSE(is_stale(s, 1000000 + 7200000));

  s.stale_after_ms = 5000;
  s.state = RunState::kFinished;  // Terminal snapshots never go stale.
  EXPECT_FALSE(is_stale(s, 2000000));
}

TEST(TelemetryView, RenderStatusPlainHasNoEscapesAndAllSections) {
  const CampaignStatus s = parse_campaign_status(kStatus);
  const std::string plain = render_campaign_status(s, /*plain=*/true);
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
  EXPECT_NE(render_campaign_status(s, false).find('\033'), std::string::npos);
  EXPECT_NE(render_campaign_status(s, true, 2000000)
                .find("(stale: writer gone?)"),
            std::string::npos);
  const std::string fresh = render_campaign_status(s, true, 1002500);
  EXPECT_NE(fresh.find("(age 2.5 s)"), std::string::npos);
  EXPECT_EQ(fresh.find("stale"), std::string::npos);
}

// The one watch loop behind both tools' `watch`: the exit table on
// terminal and stale files, and exit 2 for what it cannot watch — a v1
// file, a missing file under --once, a non-positive --interval-ms.
TEST(TelemetryView, WatchStatusExitTable) {
  const std::string dir = ::testing::TempDir() + "/view_watch";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write = [&dir](const std::string& name, std::string body,
                            const char* state) {
    const std::string running = "\"state\": \"running\"";
    body.replace(body.find(running), running.size(),
                 "\"state\": \"" + std::string(state) + "\"");
    std::ofstream(dir + "/" + name) << body;
    return name;
  };
  const auto run = [&dir](const std::string& file,
                          std::vector<std::string> flags) {
    std::vector<const char*> argv = {"watch", dir.c_str(), "--plain"};
    for (const std::string& f : flags) argv.push_back(f.c_str());
    return run_watch("watch-test", "/" + file, static_cast<int>(argv.size()),
                     argv.data());
  };
  EXPECT_EQ(run(write("finished.json", kStatus, "finished"), {"--once"}), 0);
  EXPECT_EQ(run(write("failed.json", kStatus, "failed"), {"--once"}), 1);
  EXPECT_EQ(run(write("stopped.json", kStatus, "stopped"), {"--once"}), 3);
  // wall_ms 1000000 is decades old: stale, and exits 3 even without --once.
  EXPECT_EQ(run(write("running.json", kStatus, "running"), {}), 3);
  std::ofstream(dir + "/v1.json")
      << R"({"status": "solsched-serve-v1", "state": "stopped"})";
  EXPECT_EQ(run("v1.json", {}), 2);
  EXPECT_EQ(run("missing.json", {"--once"}), 2);
  EXPECT_EQ(run("finished.json", {"--once", "--interval-ms", "0"}), 2);
  EXPECT_EQ(run("finished.json", {"--once", "--interval-ms", "-5"}), 2);
  EXPECT_EQ(run("finished.json", {"--once", "--interval-ms", "5x"}), 2);
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
  EXPECT_THROW(parse_campaign_status(""), std::runtime_error);
  EXPECT_THROW(parse_campaign_status("{}"), std::runtime_error);
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
  const CampaignStatus s = parse_campaign_status(kStatus);  // running.
  // Hours later the writer is clearly dead: stale, rendered as such, and
  // the watcher's verdict is "resume me" (3), never "finished".
  const std::uint64_t hours_later = 1000000 + 7200000;
  EXPECT_TRUE(is_stale(s, hours_later));
  EXPECT_NE(render_campaign_status(s, true, hours_later).find("stale"),
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

// Crash drill for util::durable and every reader behind it.
//
// Three kinds of case, with no crash hook in the library:
//  * every intermediate on-disk state a crash can leave is built directly
//    (a stale partial temp file, a complete temp that was never renamed, a
//    final line torn at every byte offset), and each consumer —
//    ArtifactCache::load, Journal::load, load_telemetry and the serve
//    status reader — must see the old state or the new one;
//  * a forked child looping atomic_replace and AppendLog::append is
//    SIGKILLed at varied delays, and the files must hold old or new bytes
//    and reopen to a record prefix;
//  * two threads store one artifact key while a third loads it.
//
// Not covered: the parent-directory fsync. Only a real power cut can show
// a rename that reached the page cache but not the disk.
#include "util/durable.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "../test_helpers.hpp"
#include "campaign/artifact_cache.hpp"
#include "campaign/journal.hpp"
#include "core/controller_io.hpp"
#include "obs/analysis/json_mini.hpp"
#include "obs/analysis/serve_view.hpp"
#include "obs/analysis/telemetry_view.hpp"
#include "obs/telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"

namespace solsched {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The debris a crashed atomic_replace of `path` can leave: a temp file
/// holding the first half of `next`, and one holding all of it.
void plant_temps(const std::string& path, const std::string& next) {
  const std::filesystem::path p(path);
  const std::string stem =
      (p.parent_path() / ("." + p.filename().string())).string();
  write_file(stem + ".Ab12Cd", next.substr(0, next.size() / 2));
  write_file(stem + ".Ef34Gh", next);
}

const core::TrainedController& tiny_controller() {
  static const core::TrainedController c = [] {
    const auto grid = test::tiny_grid();
    const auto gen = test::scaled_generator(grid, 81);
    core::PipelineConfig config;
    config.n_caps = 2;
    config.dp.energy_buckets = 6;
    config.dbn.pretrain.epochs = 2;
    config.dbn.finetune.epochs = 10;
    return core::train_pipeline(test::indep3(), gen.generate_days(1, grid),
                                test::small_node(grid), config);
  }();
  return c;
}

/// A second, distinct controller that serializes to different bytes.
core::TrainedController other_controller() {
  core::TrainedController c = tiny_controller();
  for (double& cap : c.node.capacities_f) cap *= 2.0;
  return c;
}

// ---- intermediate states, constructed ------------------------------------

TEST(DurableStates, ArtifactTempDebrisLeavesTheOldEntry) {
  const std::string dir = fresh_dir("durable_artifact");
  campaign::ArtifactCache cache(dir);
  const std::uint64_t key = 0x0123456789abcdefULL;
  cache.store(key, tiny_controller());
  const std::string old_bytes = read_file(cache.path_of(key));
  const std::string new_bytes =
      core::serialize_controller(other_controller());
  ASSERT_NE(old_bytes, new_bytes);

  plant_temps(cache.path_of(key), new_bytes);
  core::TrainedController loaded;
  ASSERT_TRUE(cache.load(key, &loaded));
  EXPECT_EQ(core::serialize_controller(loaded), old_bytes);
  // The daemon's directory scan must not mistake a temp for an entry.
  serve::DecisionEngine engine({dir, 0});
  EXPECT_EQ(engine.load_all(), 1u);

  cache.store(key, other_controller());
  ASSERT_TRUE(cache.load(key, &loaded));
  EXPECT_EQ(core::serialize_controller(loaded), new_bytes);
}

campaign::ShardRecord shard_record(std::size_t shard) {
  campaign::ShardRecord rec;
  rec.shard = shard;
  rec.key = "ecg/s" + std::to_string(shard);
  rec.workload = "ecg";
  rec.seed = shard;
  campaign::ShardRow row;
  row.algo = "Proposed";
  row.dmr = 0.125 * static_cast<double>(shard);
  rec.rows.push_back(row);
  return rec;
}

TEST(DurableStates, JournalTornAtEveryOffsetReadsAndHealsToOldOrNew) {
  const std::string path = fresh_dir("durable_journal") + "/journal.jsonl";
  const std::uint64_t digest = 0x5eed;
  {
    campaign::Journal journal(path, digest);
    journal.append(shard_record(0));
    journal.append(shard_record(1));
  }
  const std::string old_bytes = read_file(path);
  { campaign::Journal(path, digest).append(shard_record(2)); }
  const std::string new_bytes = read_file(path);
  const std::string last = new_bytes.substr(old_bytes.size());

  for (std::size_t k = 0; k <= last.size(); ++k) {
    SCOPED_TRACE("torn at byte " + std::to_string(k));
    write_file(path, old_bytes + last.substr(0, k));
    const bool whole = k == last.size();
    const campaign::Journal::Recovered rec =
        campaign::Journal::load(path, digest);
    EXPECT_EQ(rec.records.size(), whole ? 3u : 2u);
    EXPECT_EQ(rec.dropped_partial, k > 0 && !whole ? 1u : 0u);
    // Reopening heals to exactly the state the reader reported.
    { campaign::Journal reopened(path, digest); }
    EXPECT_EQ(read_file(path), whole ? new_bytes : old_bytes);
  }
}

TEST(DurableStates, TelemetryTornAtEveryOffsetReadsOldOrNew) {
  const std::string dir = fresh_dir("durable_telemetry");
  obs::TelemetryBus::Options options;
  options.dir = dir;
  options.spec_digest = "00000000deadbeef";
  options.heartbeat_ms = 0;
  obs::TelemetryBus bus(options);
  bus.campaign_start(2, {{"ecg", 2}}, {});
  bus.shard_claimed(0, "ecg", "cafe");
  const std::string old_bytes = read_file(dir + "/telemetry.jsonl");
  bus.shard_done(0, false);
  const std::string new_bytes = read_file(dir + "/telemetry.jsonl");
  const std::string last = new_bytes.substr(old_bytes.size());
  const std::size_t old_lines =
      obs::analysis::load_telemetry(old_bytes).lines.size();

  for (std::size_t k = 0; k <= last.size(); ++k) {
    SCOPED_TRACE("torn at byte " + std::to_string(k));
    const obs::analysis::TelemetryLog log =
        obs::analysis::load_telemetry(old_bytes + last.substr(0, k));
    const bool whole = k == last.size();
    EXPECT_EQ(log.lines.size(), whole ? old_lines + 1 : old_lines);
    EXPECT_EQ(log.dropped_partial, k > 0 && !whole ? 1u : 0u);
    EXPECT_EQ(log.spec_digest, "00000000deadbeef");
  }
}

TEST(DurableStates, ServeStatusTempDebrisLeavesTheOldSnapshot) {
  const std::string dir = fresh_dir("durable_serve");
  serve::Server::Options options;
  options.socket_path = dir + "/sock";
  options.cache_dir = dir + "/cache";
  serve::Server server(options);
  const std::string path = dir + "/status.json";
  util::atomic_replace(path, server.status_json(obs::RunState::kRunning));
  plant_temps(path, server.status_json(obs::RunState::kFinished));
  EXPECT_EQ(obs::analysis::parse_serve_status(read_file(path)).state,
            obs::RunState::kRunning);
  util::atomic_replace(path, server.status_json(obs::RunState::kFinished));
  EXPECT_EQ(obs::analysis::parse_serve_status(read_file(path)).state,
            obs::RunState::kFinished);
}

// ---- SIGKILL at varied delays --------------------------------------------

/// Snapshot generation `gen`/`seq`: self-describing, length varies with seq.
std::string snapshot_bytes(int gen, unsigned seq) {
  char head[64];
  std::snprintf(head, sizeof(head), "gen %d seq %u ", gen, seq);
  return head + std::string(64 + (seq * 37) % 4000,
                                  static_cast<char>('a' + seq % 26)) + " end\n";
}

bool is_whole_snapshot(const std::string& bytes) {
  int gen = 0;
  unsigned seq = 0;
  if (std::sscanf(bytes.c_str(), "gen %d seq %u ", &gen, &seq) != 2)
    return false;
  return bytes == snapshot_bytes(gen, seq);
}

TEST(DurableCrash, SigkillLeavesOldOrNewBytesAndALogPrefix) {
  const std::string dir = fresh_dir("durable_sigkill");
  const std::string snap = dir + "/snapshot";
  const std::string log_path = dir + "/log.jsonl";
  util::atomic_replace(snap, snapshot_bytes(-1, 0));
  const useconds_t delays_us[] = {0, 200, 700, 2000, 5000, 12000, 30000};
  int gen = 0;
  for (const useconds_t delay : delays_us) {
    SCOPED_TRACE("generation " + std::to_string(gen) + ", kill after " +
                 std::to_string(delay) + " us");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        util::AppendLog log(log_path, "{\"header\": true}");
        for (unsigned seq = 0;; ++seq) {
          util::atomic_replace(snap, snapshot_bytes(gen, seq));
          log.append("{\"gen\": " + std::to_string(gen) +
                         ", \"seq\": " + std::to_string(seq) + "}",
                     /*sync=*/seq % 2 == 0);
        }
      } catch (...) {
      }
      ::_exit(1);  // Only an I/O failure ends the loop.
    }
    ::usleep(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child stopped on its own";

    EXPECT_TRUE(is_whole_snapshot(read_file(snap)));

    { util::AppendLog reopened(log_path, "{\"header\": true}"); }
    const obs::analysis::JsonlLog log =
        obs::analysis::parse_jsonl_log(read_file(log_path), log_path);
    ASSERT_TRUE(log.has_header);
    EXPECT_EQ(log.dropped_partial, 0u);
    // Every generation's records are whole and numbered 0, 1, 2, ...
    int last_gen = -1;
    double next_seq = 0;
    for (const auto& record : log.records) {
      const int g = static_cast<int>(record.doc.number_or("gen", -1));
      if (g != last_gen) {
        EXPECT_GT(g, last_gen);
        last_gen = g;
        next_seq = 0;
      }
      EXPECT_EQ(record.doc.number_or("seq", -1), next_seq);
      ++next_seq;
    }
    ++gen;
  }
}

// ---- concurrent stores ----------------------------------------------------

TEST(DurableConcurrency, TwoStoresOfOneKeyNeverPublishATornArtifact) {
  const campaign::ArtifactCache cache(fresh_dir("durable_race"));
  const std::uint64_t key = 42;
  const core::TrainedController a = tiny_controller();
  const core::TrainedController b = other_controller();
  const std::string a_bytes = core::serialize_controller(a);
  const std::string b_bytes = core::serialize_controller(b);
  cache.store(key, a);

  std::atomic<int> writers{2};
  const auto writer = [&](const core::TrainedController& c) {
    for (int i = 0; i < 25; ++i) cache.store(key, c);
    --writers;
  };
  std::thread ta(writer, std::cref(a));
  std::thread tb(writer, std::cref(b));
  std::size_t loads = 0;
  do {
    core::TrainedController loaded;
    ASSERT_TRUE(cache.load(key, &loaded));
    const std::string bytes = core::serialize_controller(loaded);
    EXPECT_TRUE(bytes == a_bytes || bytes == b_bytes);
    ++loads;
  } while (writers.load() > 0);
  ta.join();
  tb.join();
  EXPECT_GT(loads, 0u);
}

// ---- error reporting -------------------------------------------------------

TEST(Durable, FailuresNameThePathTheStepAndTheErrno) {
  const std::string missing = fresh_dir("durable_errors") + "/no/such/file";
  try {
    util::atomic_replace(missing, "bytes");
    FAIL() << "atomic_replace into a missing directory succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(missing), std::string::npos) << what;
    EXPECT_NE(what.find("create temp file"), std::string::npos) << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
  }
  EXPECT_THROW(util::AppendLog(missing, "{}"), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(Durable, AppendLogWritesTheHeaderOnceAndHealsATornTail) {
  const std::string path = fresh_dir("durable_log") + "/log.jsonl";
  {
    util::AppendLog log(path, "head");
    log.append("one", /*sync=*/true);
  }
  write_file(path, read_file(path) + "tw");  // A kill mid-append.
  {
    util::AppendLog log(path, "head");
    log.append("two", /*sync=*/false);
  }
  EXPECT_EQ(read_file(path), "head\none\ntwo\n");
  write_file(path, "hea");  // A kill mid-header.
  { util::AppendLog log(path, "head"); }
  EXPECT_EQ(read_file(path), "head\n");
}

// The status thread must outlive a full or read-only disk: a status path
// whose directory does not exist fails every write, yet the daemon starts
// and stops cleanly.
TEST(DurableServe, UnwritableStatusPathDoesNotStopTheDaemon) {
  const std::string dir = fresh_dir("durable_serve_unwritable");
  serve::Server::Options options;
  options.socket_path = dir + "/sock";
  options.cache_dir = dir + "/cache";
  options.status_path = dir + "/missing/status.json";
  options.status_interval_ms = 5;
  serve::Server server(options);
  EXPECT_NO_THROW(server.start());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_NO_THROW(server.stop());
  EXPECT_FALSE(std::filesystem::exists(options.status_path));
}

}  // namespace
}  // namespace solsched

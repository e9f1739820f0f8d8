// End-to-end daemon drills over real AF_UNIX sockets: liveness, decision
// parity through the wire, the malformed-frame flood, overload shedding,
// the corrupt-controller degradation drill, hot-reload under load, client
// backoff across a daemon restart, and the status file contract.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../test_helpers.hpp"
#include "campaign/artifact_cache.hpp"
#include "core/pipeline.hpp"
#include "obs/analysis/serve_view.hpp"
#include "obs/analysis/timeline.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"

namespace solsched::serve {
namespace {

constexpr std::uint64_t kKey = 0xbeefULL;

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

struct TestDirs {
  std::string root;
  std::string cache;
  std::string socket;
  std::string status;
};

TestDirs fresh_dirs(const char* name, bool with_controller = true) {
  TestDirs d;
  d.root = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(d.root);
  std::filesystem::create_directories(d.root);
  d.cache = d.root + "/cache";
  d.socket = d.root + "/sock";
  d.status = d.root + "/status.json";
  campaign::ArtifactCache cache(d.cache);
  if (with_controller) cache.store(kKey, tiny_controller());
  return d;
}

Server::Options server_options(const TestDirs& d) {
  Server::Options options;
  options.socket_path = d.socket;
  options.cache_dir = d.cache;
  options.status_path = d.status;
  options.workers = 2;
  options.queue_depth = 32;
  options.status_interval_ms = 0;  // Status written on stop only.
  return options;
}

ServeClient::Options client_options(const TestDirs& d,
                                    std::size_t max_attempts = 8) {
  ServeClient::Options options;
  options.socket_path = d.socket;
  options.max_attempts = max_attempts;
  options.base_backoff_ms = 5;
  options.max_backoff_ms = 100;
  options.recv_timeout_ms = 2000;
  return options;
}

QueryRequest valid_query() {
  QueryRequest q;
  q.controller_key = kKey;
  q.day = 0;
  q.period = 4;
  q.selected_cap = 0;
  q.accumulated_dmr = 0.1;
  q.cap_voltages.assign(tiny_controller().node.capacities_f.size(), 2.5);
  q.last_period_solar_w.assign(tiny_controller().node.grid.n_slots, 0.08);
  return q;
}

/// Raw hostile connection: writes arbitrary bytes, no protocol.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeEndToEnd, PingQueryAndDecisionParityThroughTheWire) {
  const TestDirs d = fresh_dirs("serve_e2e");
  Server server(server_options(d));
  server.start();

  ServeClient client(client_options(d));
  EXPECT_EQ(client.ping(), ServeClient::Result::kOk);

  DecisionReply a, b;
  ASSERT_EQ(client.query(valid_query(), &a), ServeClient::Result::kOk);
  EXPECT_EQ(a.fallback_code, kFallbackNone);
  EXPECT_EQ(a.controller_key, kKey);
  ASSERT_EQ(client.query(valid_query(), &b), ServeClient::Result::kOk);
  // Bit-identical repeat: the restart drill's comparison primitive.
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.te_mask, b.te_mask);
  EXPECT_EQ(a.has_select_cap, b.has_select_cap);
  EXPECT_EQ(a.select_cap, b.select_cap);

  // Unknown key degrades, never errors.
  QueryRequest unknown = valid_query();
  unknown.controller_key = 0x404;
  DecisionReply fallback;
  ASSERT_EQ(client.query(unknown, &fallback), ServeClient::Result::kOk);
  EXPECT_EQ(fallback.fallback_code, kFallbackNoController);
  EXPECT_TRUE(fallback.used_fallback);

  // Shape mismatch is a typed permanent refusal.
  QueryRequest bad = valid_query();
  bad.cap_voltages.pop_back();
  DecisionReply ignored;
  EXPECT_EQ(client.query(bad, &ignored), ServeClient::Result::kRefused);
  EXPECT_EQ(client.last_error().code, ErrorCode::kBadRequest);

  server.stop();
}

TEST(ServeEndToEnd, MalformedFrameFloodCostsRepliesNotTheDaemon) {
  const TestDirs d = fresh_dirs("serve_fuzz");
  Server server(server_options(d));
  server.start();

  util::Rng rng(2026);
  // 1000 hostile frames across many short-lived connections. Header-level
  // garbage forfeits framing (server replies once and closes); hash-level
  // damage keeps the connection. Either way: no crash.
  for (int i = 0; i < 100; ++i) {
    const int fd = raw_connect(d.socket);
    ASSERT_GE(fd, 0);
    for (int j = 0; j < 10; ++j) {
      std::uint8_t noise[64];
      const int len = rng.uniform_int(1, 64);
      for (int b = 0; b < len; ++b)
        noise[b] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      if (::send(fd, noise, static_cast<std::size_t>(len), MSG_NOSIGNAL) < 0)
        break;  // Server already closed this connection: expected.
    }
    ::close(fd);
  }

  // The daemon still serves real clients afterwards.
  ServeClient client(client_options(d));
  DecisionReply reply;
  EXPECT_EQ(client.query(valid_query(), &reply), ServeClient::Result::kOk);
  EXPECT_GT(server.stats().malformed, 0u);
  server.stop();
}

TEST(ServeEndToEnd, OverloadShedsWithTypedRefusal) {
  const TestDirs d = fresh_dirs("serve_overload");
  Server::Options options = server_options(d);
  options.workers = 1;
  options.queue_depth = 1;
  // Every reply sleeps 100 ms in the single worker: concurrent requests
  // pile into the 1-deep queue and the rest must shed immediately.
  options.faults = fault::ServeFaultPlan::parse("delay=1.0,delay-ms=100");
  Server server(options);
  server.start();

  std::atomic<std::size_t> ok{0}, exhausted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c)
    clients.emplace_back([&, c] {
      ServeClient::Options copts = client_options(d, /*max_attempts=*/1);
      copts.jitter_seed = static_cast<std::uint64_t>(c + 1);
      ServeClient client(copts);
      DecisionReply reply;
      switch (client.query(valid_query(), &reply)) {
        case ServeClient::Result::kOk: ok.fetch_add(1); break;
        case ServeClient::Result::kExhausted: exhausted.fetch_add(1); break;
        case ServeClient::Result::kRefused: ADD_FAILURE(); break;
      }
    });
  for (auto& t : clients) t.join();

  // Someone got served, someone got shed — and shedding was the typed
  // SERVE_OVERLOADED path, not a hang or a dropped connection.
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(server.stats().shed, 0u);
  EXPECT_EQ(ok.load() + exhausted.load(), 8u);
  server.stop();
}

TEST(ServeEndToEnd, CorruptControllerDrillServesOfflineLsaBaseline) {
  const TestDirs d = fresh_dirs("serve_corrupt");
  {
    campaign::ArtifactCache cache(d.cache);
    std::ofstream(cache.path_of(kKey), std::ios::trunc) << "garbage";
  }
  Server server(server_options(d));
  server.start();

  ServeClient client(client_options(d));
  DecisionReply reply;
  ASSERT_EQ(client.query(valid_query(), &reply), ServeClient::Result::kOk);
  // Graceful degradation: the LSA inter-task baseline plan (keep the
  // capacitor, all tasks, full speed) tagged with the serve-layer reason.
  EXPECT_EQ(reply.fallback_code, kFallbackNoController);
  EXPECT_TRUE(reply.used_fallback);
  EXPECT_FALSE(reply.has_select_cap);
  EXPECT_EQ(reply.n_tasks, 0u);
  EXPECT_EQ(reply.te_mask, 0u);
  EXPECT_EQ(reply.alpha, 1.0);
  EXPECT_FALSE(reply.intra_mode);
  server.stop();
}

TEST(ServeEndToEnd, HotReloadUnderLoadStaysConsistent) {
  const TestDirs d = fresh_dirs("serve_reload");
  Server server(server_options(d));
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 3; ++c)
    readers.emplace_back([&, c] {
      ServeClient::Options copts = client_options(d);
      copts.jitter_seed = static_cast<std::uint64_t>(c + 10);
      ServeClient client(copts);
      DecisionReply reply;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_EQ(client.query(valid_query(), &reply),
                  ServeClient::Result::kOk);
        ASSERT_EQ(reply.fallback_code, kFallbackNone);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });

  ServeClient reloader(client_options(d));
  for (int i = 0; i < 20; ++i) {
    ReloadReply ack;
    ASSERT_EQ(reloader.reload(kKey, &ack), ServeClient::Result::kOk);
    EXPECT_TRUE(ack.ok) << ack.message;
  }
  while (served.load(std::memory_order_relaxed) < 50)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GE(server.stats().reloads, 20u);
  server.stop();
}

TEST(ServeEndToEnd, ClientBackoffSurvivesDaemonRestart) {
  const TestDirs d = fresh_dirs("serve_restart");
  DecisionReply before;
  {
    Server server(server_options(d));
    server.start();
    ServeClient client(client_options(d));
    ASSERT_EQ(client.query(valid_query(), &before),
              ServeClient::Result::kOk);
    server.stop();  // Daemon gone; socket unlinked.
  }

  // A client that starts querying while the daemon is down must ride its
  // backoff into the restarted instance, not fail fast.
  std::atomic<bool> client_done{false};
  DecisionReply after;
  ServeClient::Result result = ServeClient::Result::kExhausted;
  std::size_t reconnects = 0;
  std::thread querier([&] {
    ServeClient::Options copts = client_options(d, /*max_attempts=*/20);
    ServeClient client(copts);
    result = client.query(valid_query(), &after);
    reconnects = client.reconnects();
    client_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Server server(server_options(d));  // Same socket path: stale-unlink + bind.
  server.start();
  querier.join();

  ASSERT_EQ(result, ServeClient::Result::kOk);
  EXPECT_GT(reconnects, 0u);
  // Decisions are bit-identical across the restart.
  EXPECT_EQ(after.alpha, before.alpha);
  EXPECT_EQ(after.te_mask, before.te_mask);
  EXPECT_EQ(after.select_cap, before.select_cap);
  server.stop();
}

TEST(ServeEndToEnd, TracedQueryLeavesDecisionBytesIdentical) {
  // The observability-off contract, end to end: with the obs switch dark,
  // a v2 (traced) query must produce the exact decision bytes of its v1
  // twin — tracing changes the envelope, never the answer.
  ASSERT_FALSE(solsched::obs::enabled());
  const TestDirs d = fresh_dirs("serve_byteident");
  Server server(server_options(d));
  server.start();

  ServeClient client(client_options(d));
  DecisionReply plain, traced;
  ASSERT_EQ(client.query(valid_query(), &plain), ServeClient::Result::kOk);
  QueryRequest q = valid_query();
  q.trace.trace_id = derive_trace_id(42, 0);
  q.trace.parent_span_id = 7;
  ASSERT_EQ(client.query(q, &traced), ServeClient::Result::kOk);
  // encode_decision is a pure function of the reply struct, so comparing
  // encodings compares the wire bytes the two replies traveled as.
  EXPECT_EQ(encode_decision(plain), encode_decision(traced));
  server.stop();
}

TEST(ServeEndToEnd, TracedRequestStitchesIntoOneTimeline) {
  const TestDirs d = fresh_dirs("serve_timeline");
  Server::Options options = server_options(d);
  options.trace_path = d.root + "/server_trace.json";
  solsched::obs::set_enabled(true);
  solsched::obs::set_trace_events_enabled(true);

  const std::uint64_t trace_id = derive_trace_id(7, 3);
  {
    Server server(options);
    server.start();
    ServeClient client(client_options(d));
    QueryRequest q = valid_query();
    q.trace.trace_id = trace_id;
    DecisionReply reply;
    ASSERT_EQ(client.query(q, &reply), ServeClient::Result::kOk);
    server.stop();  // Graceful stop flushes the dump: the satellite contract.
  }
  solsched::obs::set_trace_events_enabled(false);
  solsched::obs::set_enabled(false);
  solsched::obs::clear_trace_events();

  // Client and server share this process, hence one span sink: the dump the
  // daemon flushed on stop holds both sides of the round trip. (The genuine
  // two-file merge is timeline_test's and the tier-1 drill's job.)
  const auto timeline =
      solsched::obs::analysis::load_timeline({options.trace_path});
  const auto breakdowns = solsched::obs::analysis::request_breakdowns(timeline);
  const solsched::obs::analysis::RequestBreakdown* b = nullptr;
  for (const auto& candidate : breakdowns)
    if (candidate.trace_id == trace_id) b = &candidate;
  ASSERT_NE(b, nullptr) << "trace id absent from the merged dumps";

  // Both sides contributed: the client span wraps the server span, and the
  // stage spans partition (a subset of) the server span. Wall-clock slack
  // covers rounding at the µs edges.
  EXPECT_GT(b->client_latency_us, 0u);
  EXPECT_GT(b->server_total_us, 0u);
  EXPECT_GT(b->stage_sum_us, 0u);
  EXPECT_LE(b->server_total_us, b->client_latency_us + 50);
  EXPECT_LE(b->stage_sum_us, b->server_total_us + 50);
  EXPECT_GE(b->spans.size(), 5u);  // client + serve.req + >=3 stages.

  // The flow arrow survives the merge: one start, one finish, same id.
  std::size_t starts = 0, finishes = 0;
  for (const auto& ev : timeline.events) {
    if (ev.trace_id != trace_id) continue;
    if (ev.ph == 's') ++starts;
    if (ev.ph == 'f') ++finishes;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);

  // The plain-text renderer names the trace and the breakdown lines.
  const std::string text =
      solsched::obs::analysis::render_timeline(timeline, trace_id);
  EXPECT_NE(text.find("serve.req"), std::string::npos);
  EXPECT_NE(text.find("serve.client.request"), std::string::npos);
}

TEST(ServeEndToEnd, ShutdownFrameUnblocksWaitAndStatusFileIsParseable) {
  const TestDirs d = fresh_dirs("serve_status");
  Server::Options options = server_options(d);
  options.status_interval_ms = 20;
  auto server = std::make_unique<Server>(options);
  server->start();

  ServeClient client(client_options(d));
  DecisionReply reply;
  ASSERT_EQ(client.query(valid_query(), &reply), ServeClient::Result::kOk);
  ASSERT_EQ(client.shutdown_server(), ServeClient::Result::kOk);
  server->wait();  // Returns because the kShutdown frame armed the latch.
  server->stop();
  server.reset();

  // The final snapshot is a parseable "finished" status; tmp -> rename
  // means it is never torn.
  std::ifstream in(d.status, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream body;
  body << in.rdbuf();
  const auto status = obs::analysis::parse_serve_status(body.str());
  EXPECT_EQ(status.state, obs::RunState::kFinished);
  EXPECT_EQ(status.controllers, 1u);
  EXPECT_GE(status.requests, 1u);
  // A finished snapshot never goes stale, no matter the clock.
  EXPECT_FALSE(
      obs::analysis::is_stale(status, status.wall_ms + 3600 * 1000));
  EXPECT_EQ(obs::analysis::status_exit_code(status), 0);
}

// The daemon declares its own staleness window, ten status intervals, so a
// healthy daemon on a slow cadence is never called gone between rewrites.
TEST(ServeStatusFile, SlowCadenceDaemonIsNotCalledGone) {
  const TestDirs d = fresh_dirs("serve_slow_status", false);
  Server::Options options = server_options(d);
  options.status_interval_ms = 10000;
  Server server(options);
  const auto status = obs::analysis::parse_serve_status(
      server.status_json(obs::RunState::kRunning));
  EXPECT_EQ(status.stale_after_ms, 100000u);
  EXPECT_FALSE(obs::analysis::is_stale(status, status.wall_ms + 6500));
  EXPECT_FALSE(obs::analysis::is_stale(status, status.wall_ms + 100000));
  EXPECT_TRUE(obs::analysis::is_stale(status, status.wall_ms + 100001));
}

// With no periodic rewrite the daemon promises nothing: a "running" file
// written at start only never ages out.
TEST(ServeStatusFile, NoStatusCadenceNeverGoesStale) {
  const TestDirs d = fresh_dirs("serve_no_cadence", false);
  Server server(server_options(d));  // status_interval_ms = 0.
  const auto status = obs::analysis::parse_serve_status(
      server.status_json(obs::RunState::kRunning));
  EXPECT_EQ(status.stale_after_ms, 0u);
  EXPECT_FALSE(obs::analysis::is_stale(status, status.wall_ms + 86400000));
}

}  // namespace
}  // namespace solsched::serve

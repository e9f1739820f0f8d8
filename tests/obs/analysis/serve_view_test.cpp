// Reader side of the solsched-serve status file: parsing (fixtures and
// the daemon's own bytes), the staleness verdict for daemons killed without
// a final "finished" snapshot, the envelope both writers share, and the
// render `solsched-inspect serve` prints.
#include "obs/analysis/serve_view.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analysis/inspect.hpp"
#include "obs/analysis/json_mini.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"

namespace solsched::obs::analysis {
namespace {

// A status.json in the shape serve::Server::status_json emits.
const char* kServeStatus = R"({
  "status": "solsched-status-v2",
  "kind": "serve",
  "state": "running",
  "wall_ms": 5000000,
  "stale_after_ms": 5000,
  "pid": 4242,
  "socket": "/tmp/solsched.sock",
  "controllers": 3,
  "workers": 2,
  "queue_capacity": 64,
  "queue_depth": 5,
  "queue_peak": 17,
  "requests": 1000,
  "decisions": 950,
  "fallbacks": 12,
  "malformed": 3,
  "shed": 20,
  "timeouts": 7,
  "errors": 20,
  "reloads": 2,
  "faults_injected": 0,
  "latency_count": 950,
  "latency_sum_us": 95000,
  "p50_us": 100,
  "p99_us": 500
})";

// A snapshot with nonzero degradation rungs, lifetime availability, and
// the SLO block.
const char* kServeStatusWithSlo = R"({
  "status": "solsched-status-v2",
  "kind": "serve",
  "state": "running",
  "wall_ms": 5000000,
  "stale_after_ms": 5000,
  "pid": 4242,
  "socket": "/tmp/solsched.sock",
  "controllers": 3,
  "workers": 2,
  "queue_capacity": 64,
  "queue_depth": 5,
  "queue_peak": 17,
  "requests": 1000,
  "decisions": 950,
  "fallbacks": 12,
  "fallback_no_controller": 6,
  "fallback_corrupt": 2,
  "fallback_budget": 3,
  "fallback_sched": 1,
  "malformed": 3,
  "shed": 20,
  "timeouts": 7,
  "errors": 50,
  "reloads": 2,
  "faults_injected": 0,
  "latency_count": 950,
  "latency_sum_us": 95000,
  "p50_us": 100,
  "p99_us": 500,
  "availability": 0.95,
  "slo": {
    "target_availability": 0.99,
    "target_p99_us": 5000,
    "fast_window_s": 30,
    "slow_window_s": 60,
    "burn_alert": 2.0,
    "availability_fast": 0.9,
    "availability_slow": 0.93,
    "burn_fast": 10.0,
    "burn_slow": 7.0,
    "p99_fast_us": 450,
    "p99_slow_us": 400,
    "alert_availability": true,
    "alert_p99": false,
    "alert": true
  }
})";

TEST(ServeView, ParseStatusReadsEveryField) {
  const ServeStatus s = parse_serve_status(kServeStatus);
  EXPECT_EQ(s.kind, "serve");
  EXPECT_EQ(s.state, RunState::kRunning);
  EXPECT_EQ(s.wall_ms, 5000000u);
  EXPECT_EQ(s.stale_after_ms, 5000u);
  EXPECT_EQ(s.pid, 4242u);
  EXPECT_EQ(s.socket, "/tmp/solsched.sock");
  EXPECT_EQ(s.controllers, 3u);
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.queue_capacity, 64u);
  EXPECT_EQ(s.queue_depth, 5u);
  EXPECT_EQ(s.queue_peak, 17u);
  EXPECT_EQ(s.requests, 1000u);
  EXPECT_EQ(s.decisions, 950u);
  EXPECT_EQ(s.fallbacks, 12u);
  EXPECT_EQ(s.malformed, 3u);
  EXPECT_EQ(s.shed, 20u);
  EXPECT_EQ(s.timeouts, 7u);
  EXPECT_EQ(s.errors, 20u);
  EXPECT_EQ(s.reloads, 2u);
  EXPECT_EQ(s.latency_count, 950u);
  EXPECT_EQ(s.latency_sum_us, 95000u);
  EXPECT_EQ(s.p50_us, 100u);
  EXPECT_EQ(s.p99_us, 500u);
  // A file without rung/availability/SLO keys reads their defaults.
  EXPECT_EQ(s.fallback_no_controller, 0u);
  EXPECT_DOUBLE_EQ(s.availability, 1.0);
  EXPECT_FALSE(s.has_slo);
}

TEST(ServeView, ParseReadsRungsAvailabilityAndSloBlock) {
  const ServeStatus s = parse_serve_status(kServeStatusWithSlo);
  EXPECT_EQ(s.fallback_no_controller, 6u);
  EXPECT_EQ(s.fallback_corrupt, 2u);
  EXPECT_EQ(s.fallback_budget, 3u);
  EXPECT_EQ(s.fallback_sched, 1u);
  EXPECT_DOUBLE_EQ(s.availability, 0.95);
  ASSERT_TRUE(s.has_slo);
  EXPECT_DOUBLE_EQ(s.slo.target_availability, 0.99);
  EXPECT_EQ(s.slo.target_p99_us, 5000u);
  EXPECT_EQ(s.slo.fast_window_s, 30u);
  EXPECT_EQ(s.slo.slow_window_s, 60u);
  EXPECT_DOUBLE_EQ(s.slo.burn_alert, 2.0);
  EXPECT_DOUBLE_EQ(s.slo.availability_fast, 0.9);
  EXPECT_DOUBLE_EQ(s.slo.availability_slow, 0.93);
  EXPECT_DOUBLE_EQ(s.slo.burn_fast, 10.0);
  EXPECT_DOUBLE_EQ(s.slo.burn_slow, 7.0);
  EXPECT_EQ(s.slo.p99_fast_us, 450u);
  EXPECT_EQ(s.slo.p99_slow_us, 400u);
  EXPECT_TRUE(s.slo.alert_availability);
  EXPECT_FALSE(s.slo.alert_p99);
  EXPECT_TRUE(s.slo.alert);
}

serve::Server::Options server_options(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::Server::Options options;
  options.socket_path = dir + "/sock";
  options.cache_dir = dir + "/cache";
  return options;
}

// The same parses fed the daemon's own bytes, without and with an SLO
// block: every body field survives, the envelope carries the window the
// daemon declared (ten status intervals), and `inspect slo` reads the
// block back.
TEST(ServeView, ParseReadsEveryFieldTheDaemonWrites) {
  serve::Server::Options options = server_options("view_server_roundtrip");
  options.workers = 3;
  options.queue_depth = 17;
  {
    const serve::Server server(options);
    const ServeStatus s =
        parse_serve_status(server.status_json(RunState::kRunning));
    EXPECT_EQ(s.kind, "serve");
    EXPECT_EQ(s.state, RunState::kRunning);
    EXPECT_GT(s.wall_ms, 0u);
    EXPECT_EQ(s.stale_after_ms, 5000u);  // Default 500 ms cadence.
    EXPECT_EQ(s.pid, static_cast<std::uint64_t>(::getpid()));
    EXPECT_EQ(s.socket, options.socket_path);
    EXPECT_EQ(s.controllers, 0u);
    EXPECT_EQ(s.workers, 3u);
    EXPECT_EQ(s.queue_capacity, 17u);
    EXPECT_EQ(s.requests, 0u);
    EXPECT_EQ(s.errors, 0u);
    EXPECT_EQ(s.p99_us, 0u);
    EXPECT_DOUBLE_EQ(s.availability, 1.0);
    EXPECT_FALSE(s.has_slo);
  }

  options.status_interval_ms = 20;
  std::string error;
  ASSERT_TRUE(obs::parse_slo_config(
      "availability=0.999,p99-us=5000,fast-s=30,slow-s=60,burn=2.5",
      &options.slo, &error))
      << error;
  const std::string status_path = options.socket_path + ".status.json";
  {
    const serve::Server server(options);
    const std::string bytes = server.status_json(RunState::kFinished);
    std::ofstream(status_path) << bytes;
    const ServeStatus s = parse_serve_status(bytes);
    EXPECT_EQ(s.state, RunState::kFinished);
    EXPECT_EQ(s.stale_after_ms, 200u);
    ASSERT_TRUE(s.has_slo);
    EXPECT_DOUBLE_EQ(s.slo.target_availability, 0.999);
    EXPECT_EQ(s.slo.target_p99_us, 5000u);
    EXPECT_EQ(s.slo.fast_window_s, 30u);
    EXPECT_EQ(s.slo.slow_window_s, 60u);
    EXPECT_DOUBLE_EQ(s.slo.burn_alert, 2.5);
    EXPECT_DOUBLE_EQ(s.slo.availability_fast, 1.0);
    EXPECT_DOUBLE_EQ(s.slo.availability_slow, 1.0);
    EXPECT_DOUBLE_EQ(s.slo.burn_fast, 0.0);
    EXPECT_FALSE(s.slo.alert);
  }
  const char* argv[] = {"solsched-inspect", "slo", status_path.c_str()};
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_inspect(3, argv), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("slo: target availability 0.9990  target p99 5000 us  "
                     "windows 30/60 s  burn alert >= 2.5"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("slo: ok"), std::string::npos) << out;
}

// Both writers open their status file with the same envelope, key for key.
TEST(ServeView, EnvelopeIsSharedByBothWriters) {
  const std::string campaign_dir =
      ::testing::TempDir() + "/view_envelope_campaign";
  std::filesystem::remove_all(campaign_dir);
  std::filesystem::create_directories(campaign_dir);
  TelemetryBus::Options bus_options;
  bus_options.dir = campaign_dir;
  bus_options.heartbeat_ms = 0;
  const TelemetryBus bus(bus_options);
  const serve::Server server(server_options("view_envelope_serve"));
  const auto envelope_keys = [](const std::string& text) {
    std::vector<std::string> keys;
    for (const auto& member : parse_json(text).object) {
      if (keys.size() == 5) break;
      keys.push_back(member.first);
    }
    return keys;
  };
  const std::vector<std::string> expected = {"status", "kind", "state",
                                             "wall_ms", "stale_after_ms"};
  EXPECT_EQ(envelope_keys(bus.status_json()), expected);
  EXPECT_EQ(envelope_keys(server.status_json(RunState::kRunning)), expected);
  EXPECT_EQ(parse_status_header(parse_json(bus.status_json()), "campaign")
                .state,
            RunState::kRunning);
  EXPECT_EQ(parse_status_header(
                parse_json(server.status_json(RunState::kFinished)), "serve")
                .state,
            RunState::kFinished);
}

TEST(ServeView, RejectsDegenerateDocuments) {
  // Zero-length, magic-less and wrong-magic files must all be refused —
  // these are what a watcher finds when it races the daemon's first write
  // or points at the wrong campaign file.
  EXPECT_THROW(parse_serve_status(""), std::runtime_error);
  EXPECT_THROW(parse_serve_status("{}"), std::runtime_error);
  EXPECT_THROW(parse_serve_status("not json"), std::runtime_error);
  EXPECT_THROW(
      parse_serve_status(R"({"status": "solsched-campaign-status-v1"})"),
      std::runtime_error);
  EXPECT_THROW(parse_serve_status(R"({"status": "solsched-serve-v1",
      "state": "stopped"})"),
               std::runtime_error);
  EXPECT_THROW(parse_serve_status(R"({"status": "solsched-status-v2",
      "kind": "campaign", "state": "running"})"),
               std::runtime_error);
}

TEST(ServeView, StalenessAgesOutKilledDaemons) {
  ServeStatus s = parse_serve_status(kServeStatus);  // running, wall 5000000.
  ASSERT_EQ(s.stale_after_ms, 5000u);  // Declared by the daemon.
  EXPECT_FALSE(is_stale(s, 5000000 + 5000));  // At edge.
  EXPECT_TRUE(is_stale(s, 5000000 + 5001));
  EXPECT_FALSE(is_stale(s, 0));  // No clock: no verdict.

  // A kill -9 leaves the last "running" snapshot behind forever; a clean
  // stop writes "finished", which never goes stale.
  s.state = RunState::kFinished;
  EXPECT_FALSE(is_stale(s, 5000000 + 7200000));
}

TEST(ServeView, RenderCarriesCountersAndStaleNote) {
  const ServeStatus s = parse_serve_status(kServeStatus);
  const std::string text = render_serve_status(s, /*plain=*/true);
  EXPECT_NE(text.find("state running"), std::string::npos);
  EXPECT_NE(text.find("pid 4242"), std::string::npos);
  EXPECT_NE(text.find("/tmp/solsched.sock"), std::string::npos);
  EXPECT_NE(text.find("queue 5/64 (peak 17)"), std::string::npos);
  EXPECT_NE(text.find("requests 1000"), std::string::npos);
  EXPECT_NE(text.find("fallbacks 12"), std::string::npos);
  EXPECT_NE(text.find("malformed 3"), std::string::npos);
  EXPECT_NE(text.find("p99 500 us"), std::string::npos);
  EXPECT_EQ(text.find("stale"), std::string::npos);

  EXPECT_NE(render_serve_status(s, true, 5000000 + 60000)
                .find("(stale: writer gone?)"),
            std::string::npos);
}

TEST(ServeView, RenderReportsAgeRungsAvailabilityAndSloVerdict) {
  const ServeStatus s = parse_serve_status(kServeStatusWithSlo);
  // A fresh snapshot (2.5 s old): age is reported, no stale note.
  const std::string fresh = render_serve_status(s, true, 5000000 + 2500);
  EXPECT_NE(fresh.find("(age 2.5 s)"), std::string::npos);
  EXPECT_EQ(fresh.find("stale"), std::string::npos);
  EXPECT_NE(fresh.find(
                "rungs: no_controller 6  corrupt 2  budget 3  "
                "sched_fallback 1"),
            std::string::npos);
  EXPECT_NE(fresh.find("availability 0.9500"), std::string::npos);
  EXPECT_NE(fresh.find("slo: target availability 0.9900"), std::string::npos);
  EXPECT_NE(fresh.find("burn 10.00/7.00"), std::string::npos);
  EXPECT_NE(fresh.find("slo: ALERT availability-burn"), std::string::npos);
  EXPECT_EQ(fresh.find("p99-latency"), std::string::npos);

  // Same snapshot with the alert cleared renders the quiet verdict.
  ServeStatus ok = s;
  ok.slo.alert = false;
  ok.slo.alert_availability = false;
  EXPECT_NE(render_serve_status(ok, true).find("slo: ok"), std::string::npos);
}

}  // namespace
}  // namespace solsched::obs::analysis

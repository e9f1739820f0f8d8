// Reader/renderer of the serve body of a status file (DESIGN.md §16).
//
// serve::Server rewrites status.json (util::atomic_replace) on a fixed
// cadence; the envelope, staleness rule and watch loop are status_view's,
// this module reads and renders the daemon's counters: `solsched-inspect
// serve` does a one-shot render with a staleness verdict, `inspect slo`
// reads the SLO block. Kept in obs/analysis (not serve) because it depends
// only on json_mini and must stay usable when the daemon is a corpse — the
// whole point is diagnosing a kill -9 from the file it left behind.
#pragma once

#include <cstdint>
#include <string>

#include "obs/analysis/status_view.hpp"

namespace solsched::obs::analysis {

/// Parsed solsched-serve status.json snapshot: the envelope plus the body.
/// The daemon writes "running" while it serves and "finished" on a clean
/// stop.
struct ServeStatus : StatusHeader {
  std::uint64_t pid = 0;
  std::string socket;
  std::size_t controllers = 0;
  std::size_t workers = 0;
  std::size_t queue_capacity = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  std::uint64_t requests = 0;
  std::uint64_t decisions = 0;
  std::uint64_t fallbacks = 0;
  /// Degradation-ladder rung counts.
  std::uint64_t fallback_no_controller = 0;
  std::uint64_t fallback_corrupt = 0;
  std::uint64_t fallback_budget = 0;
  std::uint64_t fallback_sched = 0;
  std::uint64_t malformed = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t reloads = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum_us = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  /// Lifetime good-verdict fraction; 1.0 for an idle daemon.
  double availability = 1.0;

  /// SLO block (present only when the daemon was started with targets).
  struct Slo {
    double target_availability = 0.0;
    std::uint64_t target_p99_us = 0;
    std::uint64_t fast_window_s = 0;
    std::uint64_t slow_window_s = 0;
    double burn_alert = 0.0;
    double availability_fast = 1.0;
    double availability_slow = 1.0;
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    std::uint64_t p99_fast_us = 0;
    std::uint64_t p99_slow_us = 0;
    bool alert_availability = false;
    bool alert_p99 = false;
    bool alert = false;
  };
  bool has_slo = false;
  Slo slo;
};

/// Parses a serve status.json document. Throws std::runtime_error on
/// malformed JSON or an envelope parse_status_header() refuses.
ServeStatus parse_serve_status(const std::string& json_text);

/// The SLO block as `inspect serve` and `inspect slo` print it: targets,
/// fast/slow observations and the verdict ("slo: ok" or "slo: ALERT ...").
std::string render_slo(const ServeStatus::Slo& slo);

/// Renders the snapshot as a terminal block (ANSI header unless `plain`);
/// now_wall_ms (epoch ms, 0 = skip) adds the snapshot age and stale note.
std::string render_serve_status(const ServeStatus& status, bool plain,
                                std::uint64_t now_wall_ms = 0);

}  // namespace solsched::obs::analysis

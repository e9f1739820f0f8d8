// Reader/renderer side of the live-telemetry layer (DESIGN.md §15).
//
// TelemetryBus (src/obs/telemetry.hpp) writes status.json snapshots and a
// telemetry.jsonl event stream into the campaign directory; this module
// reads the campaign body of the status file (the envelope, staleness and
// watch loop are status_view's) and the event stream:
// `solsched-campaign watch` polls the dashboard through run_watch,
// `solsched-inspect telemetry` does a one-shot render plus an event census.
// Kept in obs/analysis (not obs) because it depends on json_mini and is
// strictly offline tooling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/analysis/status_view.hpp"

namespace solsched::obs::analysis {

/// Parsed campaign status.json snapshot: the envelope plus the body.
struct CampaignStatus : StatusHeader {
  std::string spec_digest;
  std::uint64_t elapsed_ms = 0;  ///< Run time of the publishing process.
  std::size_t threads = 0;
  std::uint64_t heartbeat_ms = 0;
  std::uint64_t stall_ms = 0;
  std::uint64_t heartbeats = 0;

  std::size_t total = 0;
  std::size_t done = 0;
  std::size_t resumed = 0;
  std::size_t executed = 0;
  std::size_t in_flight = 0;
  std::size_t failed = 0;
  std::size_t stalled = 0;

  std::size_t artifact_hits = 0;
  double hit_rate = 0.0;
  std::size_t trainings = 0;
  double throughput_shards_per_min = 0.0;
  double eta_s = 0.0;

  struct Workload {
    std::string workload;
    std::size_t total = 0;
    std::size_t done = 0;
    double mean_shard_ms = 0.0;
    double eta_s = 0.0;
  };
  std::vector<Workload> workloads;
};

/// Parses a campaign status.json document. Throws std::runtime_error on
/// malformed JSON or an envelope parse_status_header() refuses.
CampaignStatus parse_campaign_status(const std::string& json_text);

/// Renders the snapshot as a terminal dashboard. plain=true emits pure
/// ASCII (no ANSI escapes) for CI logs; now_wall_ms (epoch ms, 0 = skip)
/// adds the snapshot age and the stale note.
std::string render_campaign_status(const CampaignStatus& status, bool plain,
                                   std::uint64_t now_wall_ms = 0);

/// One line of telemetry.jsonl (the reader-side mirror of
/// obs::TelemetryEvent).
struct TelemetryLine {
  std::uint64_t seq = 0;
  std::uint64_t wall_ms = 0;
  std::string type;
  bool has_shard = false;
  std::uint64_t shard = 0;
  std::string workload;
  std::string detail;
};

/// Parsed telemetry.jsonl stream.
struct TelemetryLog {
  std::string spec_digest;  ///< From the header line.
  std::vector<TelemetryLine> lines;
  std::size_t dropped_partial = 0;  ///< 1 when a torn tail was forgiven.
  /// type -> count census over `lines`.
  std::map<std::string, std::size_t> census() const;
};

/// Parses the full telemetry.jsonl text with parse_jsonl_log: a parse
/// failure is forgiven only on the final line (crash-torn tail); malformed
/// mid-file lines, or more than one malformed line, throw
/// std::runtime_error.
TelemetryLog load_telemetry(const std::string& text);

}  // namespace solsched::obs::analysis

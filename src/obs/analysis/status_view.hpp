// The one status-file reader (DESIGN.md §15.1): the envelope every
// status.json opens with (obs/status.hpp), the staleness rule, the exit
// table, the header line of the rendered dashboard, and the watch loop that
// `solsched-campaign watch` and `solsched-serve watch` both run. The body
// fields of each kind are read and rendered by telemetry_view (campaign)
// and serve_view (serve).
#pragma once

#include <cstdint>
#include <string>

#include "obs/analysis/json_mini.hpp"
#include "obs/status.hpp"

namespace solsched::obs::analysis {

/// The envelope of a status file.
struct StatusHeader {
  std::string kind;  ///< "campaign" | "serve".
  RunState state = RunState::kRunning;
  std::uint64_t wall_ms = 0;         ///< Snapshot wall clock (epoch ms).
  std::uint64_t stale_after_ms = 0;  ///< Writer's window; 0 = never stale.
};

/// Reads the envelope of a parsed status document. Throws
/// std::runtime_error on a missing or unknown schema (a v1 file is named as
/// such), a kind other than `kind`, or an unknown state.
StatusHeader parse_status_header(const JsonValue& doc,
                                 const std::string& kind);

/// True when a "running" snapshot is older than the window its writer
/// declared: the writer is gone (a kill -9 leaves the last "running"
/// snapshot behind forever). now_wall_ms = 0 skips the check.
bool is_stale(const StatusHeader& header, std::uint64_t now_wall_ms);

/// Exit code for a watcher's last look at a status file: finished -> 0,
/// failed -> 1, stopped or stale (or still running when the watcher gives
/// up) -> 3, "resume me / not done".
int status_exit_code(const StatusHeader& header);

/// The first dashboard line: `title`, the state, the snapshot age and a
/// stale note (both only when now_wall_ms is given). ANSI-colored unless
/// `plain`.
std::string render_status_header(const StatusHeader& header,
                                 const std::string& title, bool plain,
                                 std::uint64_t now_wall_ms);

/// `<tool> <target> [--plain] [--once] [--interval-ms MS]`, the one watch
/// loop behind `solsched-campaign watch` and `solsched-serve watch`
/// (argv[0] is the subcommand). Renders the status file `target + suffix`
/// (either kind) until its writer reaches a terminal state or goes stale,
/// then returns status_exit_code(). Returns 2 for bad flags, an
/// --interval-ms of 0 or below, a document that is not a current status
/// file, or (with --once) an unreadable file; without --once a missing
/// file is waited for.
int run_watch(const std::string& tool, const std::string& suffix, int argc,
              const char* const* argv);

}  // namespace solsched::obs::analysis

// The one status-file writer (DESIGN.md §15.1): every long-running
// solsched process — a campaign's TelemetryBus, the serve daemon — publishes
// its liveness through a status.json that opens with the same envelope
//
//   {"status": "solsched-status-v2", "kind": "campaign" | "serve",
//    "state": "running" | "stopped" | "finished" | "failed",
//    "wall_ms": <epoch ms of this snapshot>,
//    "stale_after_ms": <the writer's own rewrite promise>, ...body}
//
// The writer, not the reader, knows how often it rewrites the file, so it
// declares the staleness window itself: a reader calls a "running"
// snapshot stale only when it is older than stale_after_ms (0 = the writer
// promises no periodic rewrite, so the file never goes stale).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace solsched::obs {

inline constexpr const char* kStatusSchema = "solsched-status-v2";

/// Lifecycle state of a status file's writer, and its word in the file.
enum class RunState { kRunning, kStopped, kFinished, kFailed };
inline constexpr const char* kRunStateNames[] = {"running", "stopped",
                                                 "finished", "failed"};

inline const char* to_string(RunState state) noexcept {
  return kRunStateNames[static_cast<int>(state)];
}

/// Opens a status document: "{" and the envelope members, one per line,
/// each ending in ",\n"; the writer appends its body members and "\n}\n".
/// wall_ms is taken now, from obs::wall_us().
std::string status_envelope(std::string_view kind, RunState state,
                            std::uint64_t stale_after_ms);

/// Failure-tolerant writes for observers of a run: a status or event-log
/// write that throws (full disk, directory removed) must not end the run
/// it observes. Reports the first failure of each failure streak on stderr,
/// prefixed with `who`, and swallows it. Not locked: callers serialize.
class WriteGuard {
 public:
  explicit WriteGuard(std::string who) : who_(std::move(who)) {}

  /// Runs `write`, reporting and swallowing what it throws.
  void operator()(const std::function<void()>& write) noexcept;

 private:
  std::string who_;
  bool failing_ = false;
};

}  // namespace solsched::obs

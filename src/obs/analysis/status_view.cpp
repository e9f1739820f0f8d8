#include "obs/analysis/status_view.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/analysis/serve_view.hpp"
#include "obs/analysis/telemetry_view.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"

namespace solsched::obs::analysis {

StatusHeader parse_status_header(const JsonValue& doc,
                                 const std::string& kind) {
  // Names what it found, so a v1 file (solsched-campaign-status-v1,
  // solsched-serve-v1) is refused as such.
  const std::string schema = doc.string_or("status");
  if (schema != kStatusSchema)
    throw std::runtime_error("status.json: schema \"" + schema +
                             "\" is not \"" + kStatusSchema + "\"");
  StatusHeader header;
  header.kind = doc.string_or("kind");
  if (header.kind != kind)
    throw std::runtime_error("status.json: kind \"" + header.kind +
                             "\" is not a " + kind + " status");
  const std::string state = doc.string_or("state");
  const auto* const names = std::begin(kRunStateNames);
  const auto* const it = std::find(names, std::end(kRunStateNames), state);
  if (it == std::end(kRunStateNames))
    throw std::runtime_error("status.json: unknown state \"" + state + "\"");
  header.state = static_cast<RunState>(it - names);
  header.wall_ms = static_cast<std::uint64_t>(doc.number_or("wall_ms"));
  header.stale_after_ms =
      static_cast<std::uint64_t>(doc.number_or("stale_after_ms"));
  return header;
}

bool is_stale(const StatusHeader& header, std::uint64_t now_wall_ms) {
  return header.state == RunState::kRunning && header.stale_after_ms > 0 &&
         now_wall_ms > header.wall_ms &&
         now_wall_ms - header.wall_ms > header.stale_after_ms;
}

int status_exit_code(const StatusHeader& header) {
  if (header.state == RunState::kFinished) return 0;
  if (header.state == RunState::kFailed) return 1;
  return 3;
}

std::string render_status_header(const StatusHeader& header,
                                 const std::string& title, bool plain,
                                 std::uint64_t now_wall_ms) {
  // Indexed by RunState: cyan running, yellow stopped, green finished,
  // red failed.
  constexpr const char* kColors[] = {"\033[36m", "\033[33m", "\033[32m",
                                     "\033[31m"};
  const std::string reset = plain ? "" : "\033[0m";
  std::string out = (plain ? "" : "\033[1m") + title + reset + "  state " +
                    (plain ? "" : kColors[static_cast<int>(header.state)]) +
                    to_string(header.state) + reset;
  if (now_wall_ms > header.wall_ms) {
    char age[48];
    std::snprintf(age, sizeof(age), "  (age %.1f s)",
                  static_cast<double>(now_wall_ms - header.wall_ms) / 1000.0);
    out += age;
  }
  if (is_stale(header, now_wall_ms))
    out += std::string("  ") + (plain ? "" : "\033[31m") +
           "(stale: writer gone?)" + reset;
  return out + "\n";
}

int run_watch(const std::string& tool, const std::string& suffix, int argc,
              const char* const* argv) {
  // util::Cli rejects positionals, so the target is peeled off first.
  std::string target;
  std::vector<const char*> flags = {argc > 0 ? argv[0] : "watch"};
  for (int i = 1; i < argc; ++i) {
    if (target.empty() && argv[i][0] != '-')
      target = argv[i];
    else
      flags.push_back(argv[i]);
  }
  util::Cli cli;
  cli.add_flag("plain", "false", "no ANSI escapes / screen clearing (CI logs)");
  cli.add_flag("once", "false", "render one snapshot and exit");
  cli.add_flag("interval-ms", "500", "poll cadence while the writer runs");
  if (!cli.parse(static_cast<int>(flags.size()), flags.data())) {
    std::fprintf(stderr, "%s: %s\n", tool.c_str(), cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::fputs(cli.usage(tool + " <target>").c_str(), stdout);
    return 0;
  }
  const long long interval_ms = cli.get_int("interval-ms");
  if (target.empty() || interval_ms <= 0) {
    std::fprintf(stderr, "%s: %s\n", tool.c_str(),
                 target.empty() ? "a status target is required"
                                : "--interval-ms must be positive");
    return 2;
  }
  const std::string path = target + suffix;
  const bool plain = cli.get_bool("plain");
  const bool once = cli.get_bool("once");
  const auto interval = std::chrono::milliseconds(interval_ms);
  bool first = true;
  for (;;) {
    std::string text;
    try {
      text = read_file(path);
    } catch (const std::exception& e) {
      if (once) {
        std::fprintf(stderr, "%s: %s (campaigns write a status file under "
                     "SOLSCHED_OBS, the daemon with --status)\n",
                     tool.c_str(), e.what());
        return 2;
      }
      // The writer may not have published its first snapshot yet; wait.
      std::this_thread::sleep_for(interval);
      continue;
    }
    const std::uint64_t now = wall_us() / 1000;
    StatusHeader header;
    std::string frame;
    try {
      if (parse_json(text).string_or("kind") == "serve") {
        const ServeStatus status = parse_serve_status(text);
        header = status;
        frame = render_serve_status(status, plain, now);
      } else {
        const CampaignStatus status = parse_campaign_status(text);
        header = status;
        frame = render_campaign_status(status, plain, now);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s: %s\n", tool.c_str(), path.c_str(),
                   e.what());
      return 2;
    }
    if (!plain && !first) std::fputs("\033[H\033[2J", stdout);
    first = false;
    std::fputs(frame.c_str(), stdout);
    std::fflush(stdout);
    // The frame's header already carries the stale note.
    if (header.state != RunState::kRunning || once || is_stale(header, now))
      return status_exit_code(header);
    std::this_thread::sleep_for(interval);
  }
}

}  // namespace solsched::obs::analysis

#include "obs/status.hpp"

#include <cstdio>
#include <exception>

#include "obs/span.hpp"

namespace solsched::obs {

std::string status_envelope(std::string_view kind, RunState state,
                            std::uint64_t stale_after_ms) {
  std::string out = "{\n";
  out.append("  \"status\": \"").append(kStatusSchema).append("\",\n");
  out.append("  \"kind\": \"").append(kind).append("\",\n");
  out.append("  \"state\": \"").append(to_string(state)).append("\",\n");
  out += "  \"wall_ms\": " + std::to_string(wall_us() / 1000) + ",\n";
  out += "  \"stale_after_ms\": " + std::to_string(stale_after_ms) + ",\n";
  return out;
}

void WriteGuard::operator()(const std::function<void()>& write) noexcept {
  try {
    write();
    failing_ = false;
  } catch (const std::exception& e) {
    if (!failing_)
      std::fprintf(stderr, "%s: %s (still running)\n", who_.c_str(),
                   e.what());
    failing_ = true;
  }
}

}  // namespace solsched::obs

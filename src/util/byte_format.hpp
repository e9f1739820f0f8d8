// The shared byte-format helpers: one FNV-1a 64-bit hash, one JSON string
// escaper and one function per double rendering. Journals, spec digests,
// cache keys, manifests, traces and metrics dumps all go through these, so
// bytes that other programs (or later runs) read back have exactly one
// definition each.
//
// Header-only on purpose: solsched_obs includes it without linking
// solsched_util, which keeps obs a link-level leaf.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace solsched::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// FNV-1a over `size` bytes, continuing from state `h` (the standard offset
/// basis by default).
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = kFnv1aOffsetBasis) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnv1aPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = kFnv1aOffsetBasis) noexcept {
  return fnv1a(bytes.data(), bytes.size(), h);
}

/// Folds the 8 bytes of `word`, least significant first, into state `h` —
/// the same value on every host byte order.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t word) noexcept {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xFFu;
    h *= kFnv1aPrime;
  }
  return h;
}

/// Appends `s` escaped for a JSON string literal: quotes, backslashes and
/// every control character, so no input can tear a JSON line.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

/// "%.17g": the exact-round-trip rendering of campaign journals, spec
/// canonical forms, reports and digests. These bytes are on disk and feed
/// CampaignSpec::digest(), so the format is frozen.
inline std::string format_g17(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// "%.6g": six significant digits, for scenario keys ("ecg/s1/i0.5") and
/// CSV tables.
inline std::string format_g6(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Shortest round-trip decimal form ("1", "0.125", "1e+30") for metrics,
/// event traces, timeseries and status snapshots.
inline std::string format_shortest(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace solsched::util

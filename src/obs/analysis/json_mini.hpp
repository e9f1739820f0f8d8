// Minimal recursive JSON reader for the trace-analytics layer.
//
// The analysis subsystem consumes three in-repo JSON dialects — the bench
// baseline (BENCH_pipeline.json), metrics snapshots and run manifests — and
// validates the Chrome trace_event sink in tests. All are machine-written,
// so this parser favours strictness and zero dependencies over speed: full
// value grammar (null/bool/number/string/array/object), \uXXXX escapes
// decoded to UTF-8, std::runtime_error with byte offset on any deviation.
// It is an offline/CLI tool, never on a simulation hot path.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/byte_format.hpp"

namespace solsched::obs::analysis {

/// One parsed JSON value. Object member order is preserved (the writers in
/// this repo emit deterministic key orders, and diffs read better that way).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Member `key` as a number; `fallback` when absent or mistyped.
  double number_or(const std::string& key, double fallback = 0.0) const;
  /// Member `key` as a string; `fallback` when absent or mistyped.
  std::string string_or(const std::string& key,
                        const std::string& fallback = {}) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws std::runtime_error with the byte offset on error.
JsonValue parse_json(const std::string& text);

/// Reads a whole file as bytes. Throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

/// A parsed util::AppendLog file: a header object, then record objects.
struct JsonlLog {
  struct Record {
    std::size_t line_no = 0;  ///< 1-based.
    JsonValue doc;
  };
  bool has_header = false;  ///< False for an empty or torn-header log.
  JsonValue header;
  std::vector<Record> records;
  std::size_t dropped_partial = 0;  ///< 1 when a torn final line was cut.
};

/// Parses an append log's text, skipping empty lines. A crash tears only
/// the final line, so one malformed line is forgiven, only at EOF, header
/// or not; a final line without its '\n' counts as torn, since AppendLog
/// truncates it on reopen. Anything else malformed, or a non-object line,
/// throws std::runtime_error prefixed with `name`. Magic, digest and field
/// checks are the caller's.
JsonlLog parse_jsonl_log(const std::string& text, const std::string& name);

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters) — the repository's one escaper.
using util::json_escape;

}  // namespace solsched::obs::analysis

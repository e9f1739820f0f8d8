// Durable files (DESIGN.md §19): the one atomic-replace and the one append
// log. A snapshot published with atomic_replace() survives a crash at any
// instant as the complete old bytes or the complete new bytes; an AppendLog
// can lose at most a torn final line, which reopening truncates. Both throw
// std::runtime_error naming the path, the failed step and strerror(errno).
//
// Built as its own dependency-free library (solsched_durable) so that
// solsched_obs, a link-level leaf, can use it without linking solsched_util.
#pragma once

#include <string>
#include <string_view>

namespace solsched::util {

/// Replaces `path` with `bytes`: writes a unique temp file in the same
/// directory (mkstemp, mode 0644, named ".<basename>.XXXXXX"), fsyncs it,
/// renames it over `path` and fsyncs the parent directory. On failure the
/// temp file is removed and `path` is untouched.
void atomic_replace(const std::string& path, std::string_view bytes);

/// Append-only line log. Not locked: concurrent appenders keep a mutex.
class AppendLog {
 public:
  /// Opens (creating if needed) `path` for appending and truncates any
  /// bytes after the last '\n'. When the file is then empty, writes
  /// `header_line` plus '\n' and fsyncs the file and its parent directory.
  AppendLog(const std::string& path, std::string_view header_line);
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Appends `line` plus '\n'; fsyncs when `sync`.
  void append(std::string_view line, bool sync);

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace solsched::util

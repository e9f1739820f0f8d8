#include "util/durable.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace solsched::util {
namespace {

[[noreturn]] void fail(const char* who, const std::string& path,
                       const char* step, int err) {
  throw std::runtime_error(std::string(who) + " " + path + ": " + step +
                           ": " + std::strerror(err));
}

/// write() every byte, retrying EINTR and short writes; false with errno.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno != EINTR) return false;
    if (n > 0) bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// fsyncs the directory holding `path`, so a rename or a create inside it
/// survives power loss; false with errno.
bool fsync_parent(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  errno = err;
  return ok;
}

}  // namespace

void atomic_replace(const std::string& path, std::string_view bytes) {
  // npos + 1 == 0: a bare file name gets its dot at position 0.
  const std::size_t base = path.find_last_of('/') + 1;
  std::string tmp = path.substr(0, base) + "." + path.substr(base) + ".XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) fail("atomic_replace", path, "create temp file", errno);
  const char* step = nullptr;
  if (::fchmod(fd, 0644) != 0) step = "chmod temp file";
  else if (!write_all(fd, bytes)) step = "write temp file";
  else if (::fsync(fd) != 0) step = "fsync temp file";
  int err = errno;
  if (::close(fd) != 0 && step == nullptr) {
    step = "close temp file";
    err = errno;
  }
  if (step == nullptr && ::rename(tmp.c_str(), path.c_str()) != 0) {
    step = "rename into place";
    err = errno;
  }
  if (step != nullptr) {
    ::unlink(tmp.c_str());
    fail("atomic_replace", path, step, err);
  }
  if (!fsync_parent(path))
    fail("atomic_replace", path, "fsync parent directory", errno);
}

AppendLog::AppendLog(const std::string& path, std::string_view header_line)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("append log", path, "open", errno);
  // Every complete line ends in '\n', so bytes after the last newline are
  // a crash-torn partial line; appending onto them would glue the next
  // record into unparseable mid-file garbage.
  const char* step = nullptr;
  struct stat st {};
  std::string bytes;
  if (::fstat(fd_, &st) != 0) {
    step = "stat";
  } else {
    bytes.resize(static_cast<std::size_t>(st.st_size));
    if (::pread(fd_, bytes.data(), bytes.size(), 0) != st.st_size)
      step = "read";
  }
  const std::size_t cut = bytes.find_last_of('\n');
  const off_t keep = cut == std::string::npos ? 0 : static_cast<off_t>(cut + 1);
  if (step == nullptr && keep != st.st_size && ::ftruncate(fd_, keep) != 0)
    step = "truncate torn tail";
  if (step == nullptr && keep == 0) {
    if (!write_all(fd_, std::string(header_line) + "\n")) step = "write header";
    else if (::fsync(fd_) != 0) step = "fsync header";
    else if (!fsync_parent(path)) step = "fsync parent directory";
  }
  if (step != nullptr) {
    const int err = errno;
    ::close(fd_);
    fail("append log", path, step, err);
  }
}

AppendLog::~AppendLog() { ::close(fd_); }

void AppendLog::append(std::string_view line, bool sync) {
  if (!write_all(fd_, std::string(line) + "\n"))
    fail("append log", path_, "write", errno);
  if (sync && ::fsync(fd_) != 0) fail("append log", path_, "fsync", errno);
}

}  // namespace solsched::util

// Shared plumbing of the solsched benchmark: arguments, timing, order
// statistics, the result line and the host fingerprint.
//
// Every workload fills one Result. With --trace 0 it carries the
// end-to-end metrics (untraced runs); with --trace 1 the per-layer metrics,
// which the workload measures by timing calls into each module's public
// functions from these files — nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Input size of a run. `paper` is the benchmark; `tiny` shrinks every
/// grid so the smoke test finishes in seconds.
enum class Scale { kPaper, kTiny };

/// Output checks the smoke test can sabotage to prove that they fire.
enum class Tamper { kNone, kLedger, kReply, kAggregate };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kPaper;
  Tamper tamper = Tamper::kNone;
};

/// Parses argv; throws std::invalid_argument naming the bad flag.
Args parse_args(int argc, char** argv);

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in [0, 100]; 0 for no samples.
double percentile(std::vector<double> v, double q);

/// The highest-percentile sample that still has at least ten samples
/// beyond it (the maximum when there are fewer than 11 samples).
double tail(std::vector<double> v);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts operations and failed output checks: each fail() call adds
  /// `n` failures and prints its one-line reason on stderr.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  /// The unit a metric was emitted with; empty when absent.
  std::string unit(const std::string& name) const;
  std::vector<std::string> names() const;

  std::string json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One JSON object naming the host and build: CPU model, nproc, the ANN
/// SIMD dispatch taken, build type, compiler and flags, plus the run's
/// thread count and seed. Printed on the line before the result so a
/// later reader can refuse a cross-host comparison.
std::string host_fingerprint(const Args& args, std::size_t threads);

/// Scratch directory for this run, under the checkout's .bench_build:
/// created fresh, removed by the destructor.
class WorkDir {
 public:
  explicit WorkDir(const std::string& workload);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const std::string& path() const noexcept { return path_; }
  std::string sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Workload entry points; each fills `out` and returns the thread count it
/// ran the global pool with.
std::size_t run_pipeline_wam(const Args& args, Result& out);
std::size_t run_campaign_zoo(const Args& args, Result& out);

/// The serve.* per-layer metrics of a server loading `cache_dir`, with
/// traffic for the controller under `key` (a WAM controller); confines the
/// process to one CPU from here on. Counts every served request and fails
/// the ones whose decision differs from an in-process engine's. Returns
/// whether the engine timed in-process answers every query with the
/// served bytes.
bool measure_serve_layers(const Args& args, const std::string& cache_dir,
                          std::uint64_t key, double seconds, Result& out);

}  // namespace perfbench

#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "ann/kernels/kernels.hpp"
#include "obs/analysis/json_mini.hpp"
#include "obs/analysis/manifest.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out(1, '"');
  out += solsched::obs::analysis::json_escape(s);
  out += '"';
  return out;
}

/// %.17g keeps every digit the measurement has; non-finite values (a bug
/// upstream) are written as null rather than as invalid JSON.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size())
    throw std::invalid_argument(flag + " wants a whole number, got '" + text +
                                "'");
  return v;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
      if (args.seconds < 1.0) throw std::invalid_argument("--seconds < 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value == "paper") args.scale = Scale::kPaper;
      else if (value == "tiny") args.scale = Scale::kTiny;
      else throw std::invalid_argument("--scale wants paper or tiny");
    } else if (flag == "--tamper") {
      if (value == "ledger") args.tamper = Tamper::kLedger;
      else if (value == "reply") args.tamper = Tamper::kReply;
      else if (value == "aggregate") args.tamper = Tamper::kAggregate;
      else throw std::invalid_argument("--tamper wants ledger|reply|aggregate");
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() < 11 ? v.back() : v[v.size() - 11];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

std::string Result::unit(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::string() : it->second.unit;
}

std::vector<std::string> Result::names() const {
  std::vector<std::string> out;
  for (const auto& entry : metrics_) out.push_back(entry.first);
  return out;
}

void Result::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(v.unit) + "}";
  }
  return out + "}}";
}

std::string host_fingerprint(const Args& args, std::size_t threads) {
  // The run manifest already records compiler, build flags and SOLSCHED_*
  // knobs; embed it rather than re-deriving those facts.
  solsched::obs::analysis::ManifestInfo info;
  info.workload = args.workload;
  info.seeds = {args.seed};
  std::string manifest = solsched::obs::analysis::manifest_json(info);
  manifest.erase(std::remove(manifest.begin(), manifest.end(), '\n'),
                 manifest.end());

  std::string out = "{\"host\": {";
  out += "\"cpu_model\": " + json_string(cpu_model());
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"simd\": " + json_string(solsched::ann::kernels::arch_name());
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS);
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"workload\": " + json_string(args.workload);
  out += ", \"scale\": ";
  out += args.scale == Scale::kPaper ? "\"paper\"" : "\"tiny\"";
  out += "}, \"manifest\": " + manifest + "}";
  return out;
}

WorkDir::WorkDir(const std::string& workload)
    : path_(".bench_build/work/" + workload + "-" +
            std::to_string(static_cast<long>(getpid()))) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench

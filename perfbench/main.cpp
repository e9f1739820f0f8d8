// solsched benchmark runner: one workload per invocation.
//
//   solsched_perfbench --workload <pipeline_wam|campaign_zoo>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--scale paper|tiny] [--tamper ledger|reply|aggregate]
//
// Prints the host fingerprint on one line, then the result object as the
// last line of stdout. The workload must emit exactly the metrics, names
// and units, that BENCHMARK.json lists for the mode. Exits 0 after printing
// a result (failed output checks are reported in it), 2 on bad arguments,
// 3 when the run throws or emits another set of metrics.
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/analysis/json_mini.hpp"

namespace {

using namespace perfbench;

struct Name {
  std::string name;
  std::string unit;
};

/// Name and unit of every metric BENCHMARK.json (in the working directory,
/// the checkout root) lists under `section`: the one list of what a run
/// must print.
std::vector<Name> listed(const char* section) {
  std::ifstream in("BENCHMARK.json");
  if (!in)
    throw std::runtime_error("BENCHMARK.json not in the working directory");
  std::stringstream text;
  text << in.rdbuf();
  const solsched::obs::analysis::JsonValue doc =
      solsched::obs::analysis::parse_json(text.str());
  const solsched::obs::analysis::JsonValue* list = doc.find(section);
  if (!list || !list->is_array())
    throw std::runtime_error(std::string("BENCHMARK.json has no ") + section);
  std::vector<Name> names;
  for (const auto& metric : list->array)
    names.push_back({metric.string_or("name"), metric.string_or("unit")});
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solsched_perfbench: %s\n", e.what());
    return 2;
  }

  Result result;
  std::size_t threads = 0;
  std::vector<Name> names;
  try {
    names = listed(args.trace ? "per_layer" : "end_to_end");
    if (args.workload == "pipeline_wam") {
      threads = run_pipeline_wam(args, result);
    } else if (args.workload == "campaign_zoo") {
      threads = run_campaign_zoo(args, result);
    } else {
      std::fprintf(stderr, "solsched_perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solsched_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 3;
  }
  if (result.attempted() == 0) {
    std::fprintf(stderr, "solsched_perfbench: no operation attempted\n");
    return 3;
  }

  if (args.trace)
    result.metric("fail_share",
                  static_cast<double>(result.failed()) /
                      static_cast<double>(result.attempted()),
                  "ratio");
  // Exactly the listed metrics: a missing, misnamed or mis-unitted one is
  // a broken run, not a zero.
  bool complete = true;
  std::set<std::string> wanted;
  for (const Name& n : names) {
    wanted.insert(n.name);
    if (!result.has(n.name) || result.unit(n.name) != n.unit) {
      std::fprintf(stderr, "solsched_perfbench: %s did not emit %s in %s\n",
                   args.workload.c_str(), n.name.c_str(), n.unit.c_str());
      complete = false;
    }
  }
  for (const std::string& name : result.names())
    if (!wanted.count(name)) {
      std::fprintf(stderr, "solsched_perfbench: %s emitted unlisted %s\n",
                   args.workload.c_str(), name.c_str());
      complete = false;
    }
  if (!complete) return 3;

  std::printf("%s\n", host_fingerprint(args, threads).c_str());
  std::printf("%s\n", result.json().c_str());
  return 0;
}

#include "campaign/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "sched/registry.hpp"
#include "task/benchmarks.hpp"
#include "util/byte_format.hpp"

namespace solsched::campaign {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("CampaignSpec: " + what);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::uint64_t parse_u64(const std::string& text, const std::string& key) {
  if (text.empty()) fail("key " + key + ": empty integer");
  for (char c : text)
    if (c < '0' || c > '9')
      fail("key " + key + ": invalid integer \"" + text + "\"");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE)
    fail("key " + key + ": invalid integer \"" + text + "\"");
  return static_cast<std::uint64_t>(value);
}

double parse_double(const std::string& text, const std::string& key) {
  if (text.empty()) fail("key " + key + ": empty number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value))
    fail("key " + key + ": invalid number \"" + text + "\"");
  return value;
}

/// Comma-separated u64 list; each element may be a single value or `a..b`
/// (inclusive, ascending).
std::vector<std::uint64_t> parse_u64_list(const std::string& text,
                                          const std::string& key) {
  std::vector<std::uint64_t> out;
  for (const std::string& part : split(text, ',')) {
    const std::size_t dots = part.find("..");
    if (dots == std::string::npos) {
      out.push_back(parse_u64(part, key));
      continue;
    }
    const std::uint64_t lo = parse_u64(part.substr(0, dots), key);
    const std::uint64_t hi = parse_u64(part.substr(dots + 2), key);
    if (hi < lo) fail("key " + key + ": descending range \"" + part + "\"");
    if (hi - lo >= 1u << 20)
      fail("key " + key + ": range \"" + part + "\" too large");
    for (std::uint64_t v = lo; v <= hi; ++v) out.push_back(v);
  }
  if (out.empty()) fail("key " + key + ": empty list");
  return out;
}

std::vector<double> parse_double_list(const std::string& text,
                                      const std::string& key) {
  std::vector<double> out;
  for (const std::string& part : split(text, ','))
    out.push_back(parse_double(part, key));
  if (out.empty()) fail("key " + key + ": empty list");
  return out;
}

const std::vector<std::string> kWorkloads = {"wam",   "ecg",   "shm",
                                             "rand1", "rand2", "rand3"};

/// The scheduler axis vocabulary is the registry's: every registered
/// policy is a valid axis value, and nothing else — the list can never
/// drift from what run_comparison can actually build.
const std::vector<std::string>& scheduler_ids() {
  static const std::vector<std::string> ids = sched::Registry::global().ids();
  return ids;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::vector<std::string> parse_name_list(const std::string& text,
                                         const std::string& key,
                                         const std::vector<std::string>& known) {
  std::vector<std::string> out;
  for (const std::string& part : split(text, ',')) {
    if (std::find(known.begin(), known.end(), part) == known.end())
      fail("key " + key + ": unknown name \"" + part +
           "\" (known: " + join(known) + ")");
    if (std::find(out.begin(), out.end(), part) != out.end())
      fail("key " + key + ": duplicate \"" + part + "\"");
    out.push_back(part);
  }
  if (out.empty()) fail("key " + key + ": empty list");
  return out;
}

solar::DayKind parse_day_kind(const std::string& text) {
  if (text == "clear") return solar::DayKind::kClear;
  if (text == "partly") return solar::DayKind::kPartlyCloudy;
  if (text == "overcast") return solar::DayKind::kOvercast;
  if (text == "rainy") return solar::DayKind::kRainy;
  fail("key day0: unknown day kind \"" + text +
       "\" (clear|partly|overcast|rainy)");
}

const char* day_kind_name(solar::DayKind kind) {
  switch (kind) {
    case solar::DayKind::kClear: return "clear";
    case solar::DayKind::kPartlyCloudy: return "partly";
    case solar::DayKind::kOvercast: return "overcast";
    case solar::DayKind::kRainy: return "rainy";
  }
  // Unreachable for valid enum values. An out-of-range value (memory
  // corruption, a cast gone wrong) must not silently canonicalize as
  // "clear" — that would corrupt spec digests and journal keys.
  throw std::logic_error("CampaignSpec: day_kind_name: invalid DayKind " +
                         std::to_string(static_cast<int>(kind)));
}

}  // namespace

std::string Scenario::key() const {
  return workload + "/s" + std::to_string(seed) + "/i" +
         util::format_g6(intensity);
}

CampaignSpec CampaignSpec::parse(const std::string& text) {
  CampaignSpec spec;
  for (const std::string& entry : split(text, ';')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      fail("entry \"" + entry + "\" is not key=value");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "workloads") {
      spec.workloads = parse_name_list(value, key, kWorkloads);
    } else if (key == "seeds") {
      spec.seeds = parse_u64_list(value, key);
    } else if (key == "intensities") {
      spec.intensities = parse_double_list(value, key);
      for (double i : spec.intensities)
        if (i < 0.0) fail("key intensities: negative intensity");
    } else if (key == "schedulers") {
      spec.schedulers = parse_name_list(value, key, scheduler_ids());
    } else if (key == "fault") {
      fault::FaultPlan::parse(value);  // Validate now, fail at parse time.
      spec.fault_spec = value;
    } else if (key == "days") {
      spec.eval_days = static_cast<std::size_t>(parse_u64(value, key));
      if (spec.eval_days == 0) fail("key days: must be >= 1");
    } else if (key == "day0") {
      spec.eval_day0 = parse_day_kind(value);
    } else if (key == "train_days") {
      spec.train_days = static_cast<std::size_t>(parse_u64(value, key));
      if (spec.train_days == 0) fail("key train_days: must be >= 1");
    } else if (key == "train_seed") {
      spec.train_seed = parse_u64(value, key);
    } else if (key == "n_caps") {
      spec.n_caps = static_cast<std::size_t>(parse_u64(value, key));
      if (spec.n_caps == 0) fail("key n_caps: must be >= 1");
    } else if (key == "periods") {
      spec.periods = static_cast<std::size_t>(parse_u64(value, key));
      if (spec.periods == 0) fail("key periods: must be >= 1");
    } else if (key == "slots") {
      spec.slots = static_cast<std::size_t>(parse_u64(value, key));
      if (spec.slots == 0) fail("key slots: must be >= 1");
    } else if (key == "dt") {
      spec.dt_s = parse_double(value, key);
      if (spec.dt_s <= 0.0) fail("key dt: must be > 0");
    } else if (key == "dp_buckets") {
      spec.dp_buckets = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "pretrain_epochs") {
      spec.pretrain_epochs = static_cast<std::size_t>(parse_u64(value, key));
    } else if (key == "finetune_epochs") {
      spec.finetune_epochs = static_cast<std::size_t>(parse_u64(value, key));
    } else {
      fail("unknown key \"" + key + "\"");
    }
  }
  return spec;
}

std::string CampaignSpec::canonical() const {
  std::string out;
  const auto list = [&out](const char* key, const auto& render,
                           const auto& values) {
    out += key;
    out += '=';
    bool first = true;
    for (const auto& v : values) {
      if (!first) out += ',';
      out += render(v);
      first = false;
    }
    out += ';';
  };
  const auto str = [](const std::string& s) { return s; };
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  list("workloads", str, workloads);
  list("seeds", u64, seeds);
  list("intensities", util::format_g17, intensities);
  list("schedulers", str, schedulers);
  out += "fault=" + fault_spec + ";";
  out += "days=" + std::to_string(eval_days) + ";";
  out += std::string("day0=") + day_kind_name(eval_day0) + ";";
  out += "train_days=" + std::to_string(train_days) + ";";
  out += "train_seed=" + std::to_string(train_seed) + ";";
  out += "n_caps=" + std::to_string(n_caps) + ";";
  out += "periods=" + std::to_string(periods) + ";";
  out += "slots=" + std::to_string(slots) + ";";
  out += "dt=" + util::format_g17(dt_s) + ";";
  out += "dp_buckets=" + std::to_string(dp_buckets) + ";";
  out += "pretrain_epochs=" + std::to_string(pretrain_epochs) + ";";
  out += "finetune_epochs=" + std::to_string(finetune_epochs);
  return out;
}

std::uint64_t CampaignSpec::digest() const {
  return util::fnv1a(canonical());
}

std::vector<Scenario> CampaignSpec::expand() const {
  std::vector<Scenario> scenarios;
  scenarios.reserve(workloads.size() * seeds.size() * intensities.size());
  for (const std::string& workload : workloads)
    for (std::uint64_t seed : seeds)
      for (double intensity : intensities) {
        Scenario s;
        s.shard = scenarios.size();
        s.workload = workload;
        s.seed = seed;
        s.intensity = intensity;
        scenarios.push_back(std::move(s));
      }
  return scenarios;
}

solar::TimeGrid CampaignSpec::grid(std::size_t n_days) const {
  return solar::TimeGrid{n_days, periods, slots, dt_s};
}

solar::TraceGenerator CampaignSpec::generator(std::uint64_t seed) const {
  solar::TraceGeneratorConfig config;
  config.seed = seed;
  const double day_s = grid(1).day_s();
  config.clear_sky.sunrise_s = 0.25 * day_s;
  config.clear_sky.sunset_s = 0.75 * day_s;
  return solar::TraceGenerator(config);
}

fault::FaultPlan CampaignSpec::fault_plan() const {
  return fault::FaultPlan::parse(fault_spec);
}

task::TaskGraph CampaignSpec::workload_graph(const std::string& name) {
  if (name == "wam") return task::wam_benchmark();
  if (name == "ecg") return task::ecg_benchmark();
  if (name == "shm") return task::shm_benchmark();
  if (name == "rand1") return task::random_case(1);
  if (name == "rand2") return task::random_case(2);
  if (name == "rand3") return task::random_case(3);
  fail("unknown workload \"" + name + "\"");
}

bool CampaignSpec::has_scheduler(const std::string& name) const {
  return std::find(schedulers.begin(), schedulers.end(), name) !=
         schedulers.end();
}

}  // namespace solsched::campaign

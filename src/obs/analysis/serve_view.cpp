#include "obs/analysis/serve_view.hpp"

#include <cstdio>
#include <sstream>

#include "obs/analysis/json_mini.hpp"

namespace solsched::obs::analysis {
namespace {

std::uint64_t u64_of(const JsonValue& doc, const char* key) {
  return static_cast<std::uint64_t>(doc.number_or(key));
}

}  // namespace

ServeStatus parse_serve_status(const std::string& json_text) {
  const JsonValue doc = parse_json(json_text);
  ServeStatus out;
  static_cast<StatusHeader&>(out) = parse_status_header(doc, "serve");
  out.pid = u64_of(doc, "pid");
  out.socket = doc.string_or("socket");
  out.controllers = static_cast<std::size_t>(doc.number_or("controllers"));
  out.workers = static_cast<std::size_t>(doc.number_or("workers"));
  out.queue_capacity =
      static_cast<std::size_t>(doc.number_or("queue_capacity"));
  out.queue_depth = static_cast<std::size_t>(doc.number_or("queue_depth"));
  out.queue_peak = static_cast<std::size_t>(doc.number_or("queue_peak"));
  out.requests = u64_of(doc, "requests");
  out.decisions = u64_of(doc, "decisions");
  out.fallbacks = u64_of(doc, "fallbacks");
  out.fallback_no_controller = u64_of(doc, "fallback_no_controller");
  out.fallback_corrupt = u64_of(doc, "fallback_corrupt");
  out.fallback_budget = u64_of(doc, "fallback_budget");
  out.fallback_sched = u64_of(doc, "fallback_sched");
  out.malformed = u64_of(doc, "malformed");
  out.shed = u64_of(doc, "shed");
  out.timeouts = u64_of(doc, "timeouts");
  out.errors = u64_of(doc, "errors");
  out.reloads = u64_of(doc, "reloads");
  out.faults_injected = u64_of(doc, "faults_injected");
  out.latency_count = u64_of(doc, "latency_count");
  out.latency_sum_us = u64_of(doc, "latency_sum_us");
  out.p50_us = u64_of(doc, "p50_us");
  out.p99_us = u64_of(doc, "p99_us");
  out.availability = doc.number_or("availability", 1.0);
  if (const JsonValue* slo = doc.find("slo"); slo && slo->is_object()) {
    out.has_slo = true;
    out.slo.target_availability = slo->number_or("target_availability");
    out.slo.target_p99_us = u64_of(*slo, "target_p99_us");
    out.slo.fast_window_s = u64_of(*slo, "fast_window_s");
    out.slo.slow_window_s = u64_of(*slo, "slow_window_s");
    out.slo.burn_alert = slo->number_or("burn_alert");
    out.slo.availability_fast = slo->number_or("availability_fast", 1.0);
    out.slo.availability_slow = slo->number_or("availability_slow", 1.0);
    out.slo.burn_fast = slo->number_or("burn_fast");
    out.slo.burn_slow = slo->number_or("burn_slow");
    out.slo.p99_fast_us = u64_of(*slo, "p99_fast_us");
    out.slo.p99_slow_us = u64_of(*slo, "p99_slow_us");
    const auto bool_of = [&](const char* key) {
      const JsonValue* v = slo->find(key);
      return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
    };
    out.slo.alert_availability = bool_of("alert_availability");
    out.slo.alert_p99 = bool_of("alert_p99");
    out.slo.alert = bool_of("alert");
  }
  return out;
}

std::string render_slo(const ServeStatus::Slo& slo) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "  slo: target availability %.4f  target p99 %llu us  "
                "windows %llu/%llu s  burn alert >= %.1f\n",
                slo.target_availability,
                static_cast<unsigned long long>(slo.target_p99_us),
                static_cast<unsigned long long>(slo.fast_window_s),
                static_cast<unsigned long long>(slo.slow_window_s),
                slo.burn_alert);
  out << line;
  std::snprintf(line, sizeof(line),
                "  slo: availability %.4f/%.4f  burn %.2f/%.2f  "
                "p99 %llu/%llu us (fast/slow)\n",
                slo.availability_fast, slo.availability_slow,
                slo.burn_fast, slo.burn_slow,
                static_cast<unsigned long long>(slo.p99_fast_us),
                static_cast<unsigned long long>(slo.p99_slow_us));
  out << line;
  if (slo.alert) {
    out << "  slo: ALERT";
    if (slo.alert_availability) out << " availability-burn";
    if (slo.alert_p99) out << " p99-latency";
    out << "\n";
  } else {
    out << "  slo: ok\n";
  }
  return out.str();
}

std::string render_serve_status(const ServeStatus& status, bool plain,
                                std::uint64_t now_wall_ms) {
  std::ostringstream out;
  char line[256];
  out << render_status_header(status, "solsched-serve", plain, now_wall_ms);
  std::snprintf(line, sizeof(line), "  pid %llu  socket %s\n",
                static_cast<unsigned long long>(status.pid),
                status.socket.c_str());
  out << line;
  std::snprintf(line, sizeof(line),
                "  controllers %zu  workers %zu  queue %zu/%zu (peak %zu)\n",
                status.controllers, status.workers, status.queue_depth,
                status.queue_capacity, status.queue_peak);
  out << line;
  std::snprintf(
      line, sizeof(line),
      "  requests %llu  decisions %llu  fallbacks %llu  reloads %llu\n",
      static_cast<unsigned long long>(status.requests),
      static_cast<unsigned long long>(status.decisions),
      static_cast<unsigned long long>(status.fallbacks),
      static_cast<unsigned long long>(status.reloads));
  out << line;
  std::snprintf(
      line, sizeof(line),
      "  rungs: no_controller %llu  corrupt %llu  budget %llu  "
      "sched_fallback %llu\n",
      static_cast<unsigned long long>(status.fallback_no_controller),
      static_cast<unsigned long long>(status.fallback_corrupt),
      static_cast<unsigned long long>(status.fallback_budget),
      static_cast<unsigned long long>(status.fallback_sched));
  out << line;
  std::snprintf(
      line, sizeof(line),
      "  malformed %llu  shed %llu  timeouts %llu  errors %llu  faults "
      "%llu\n",
      static_cast<unsigned long long>(status.malformed),
      static_cast<unsigned long long>(status.shed),
      static_cast<unsigned long long>(status.timeouts),
      static_cast<unsigned long long>(status.errors),
      static_cast<unsigned long long>(status.faults_injected));
  out << line;
  const double mean_us =
      status.latency_count > 0
          ? static_cast<double>(status.latency_sum_us) /
                static_cast<double>(status.latency_count)
          : 0.0;
  std::snprintf(line, sizeof(line),
                "  latency mean %.1f us  p50 %llu us  p99 %llu us  "
                "(%llu samples)\n",
                mean_us, static_cast<unsigned long long>(status.p50_us),
                static_cast<unsigned long long>(status.p99_us),
                static_cast<unsigned long long>(status.latency_count));
  out << line;
  std::snprintf(line, sizeof(line), "  availability %.4f\n",
                status.availability);
  out << line;
  if (status.has_slo) out << render_slo(status.slo);
  return out.str();
}

}  // namespace solsched::obs::analysis

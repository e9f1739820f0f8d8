// pipeline_wam: the offline path of the paper's Fig. 4 — capacitor sizing,
// the DP oracle, DBN training — followed by the full 10-policy comparison
// on a held-out trace, at one thread.
//
// Untraced runs time core::train_pipeline + core::run_comparison as one
// pass. The traced run alternates library passes with recomposed passes
// (layers.hpp) and reports each layer's time, the recomposed pass's layer
// coverage and its overhead over the library pass.
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/analysis/ledger.hpp"
#include "obs/metrics.hpp"
#include "task/benchmarks.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace solsched;

constexpr std::size_t kThreads = 1;
/// Input sets per run. Passes cycle through them, so every run's medians
/// average over the same spread of weather and a run's figures do not
/// hinge on one seed's clouds.
constexpr std::size_t kVariants = 8;

struct Inputs {
  task::TaskGraph graph;
  solar::SolarTrace training;
  solar::SolarTrace held_out;
  nvp::NodeConfig node;
};

/// The user's preparation before training: workload, node, and the two
/// traces drawn from the seed — two partly-cloudy training days and a
/// held-out partly-cloudy + overcast pair.
Inputs make_inputs(Scale scale, std::uint64_t seed) {
  using solar::DayKind;
  Inputs in{task::wam_benchmark(),
            weather_trace(scale, seed,
                          {DayKind::kPartlyCloudy, DayKind::kPartlyCloudy}),
            weather_trace(scale, seed ^ 0x5EEDF00Dull,
                          {DayKind::kPartlyCloudy, DayKind::kOvercast}),
            nvp::NodeConfig{}};
  in.node.grid = day_grid(scale);
  return in;
}

core::ComparisonConfig comparison_config(const core::PipelineConfig& pcfg,
                                         bool record_events) {
  core::ComparisonConfig cmp;
  cmp.scheduler_ids = kPolicyIds;
  cmp.dp = pcfg.dp;
  cmp.record_events = record_events;
  return cmp;
}

struct Pass {
  double ms = 0.0;
  core::TrainedController trained;
  std::vector<core::ComparisonRow> rows;
};

Pass library_pass(const Inputs& in, const core::PipelineConfig& pcfg,
                  bool record_events = false) {
  Pass pass;
  const auto t0 = Clock::now();
  pass.trained = core::train_pipeline(in.graph, in.training, in.node, pcfg);
  pass.rows = core::run_comparison(in.graph, in.held_out, in.node,
                                   &pass.trained,
                                   comparison_config(pcfg, record_events));
  pass.ms = ms_since(t0);
  return pass;
}

/// Per-row outputs that must repeat exactly from pass to pass.
std::vector<double> fingerprint(const Pass& pass) {
  std::vector<double> v = {pass.trained.train_mse, pass.trained.oracle_dmr};
  for (const core::ComparisonRow& row : pass.rows) {
    v.push_back(row.dmr);
    v.push_back(row.energy_utilization);
  }
  return v;
}

/// Energy-ledger conservation audit on every comparison row of one
/// event-recording pass, plus the cross-check against the row's own
/// SimResult. Returns the number of rows audited.
std::size_t audit_rows(const Pass& pass, Tamper tamper, Result& out) {
  std::size_t audited = 0;
  for (const core::ComparisonRow& row : pass.rows) {
    ++audited;
    if (!row.events) {
      out.fail("row " + row.id + " recorded no events");
      continue;
    }
    obs::analysis::EnergyLedger ledger =
        obs::analysis::build_ledger(row.events->events());
    if (tamper == Tamper::kLedger && audited == 1 && !ledger.periods.empty())
      ledger.periods[ledger.periods.size() / 2].solar_in_j += 1.0;
    const auto conservation = obs::analysis::audit_conservation(ledger);
    if (!conservation.ok)
      out.fail("ledger of row " + row.id + ": " + conservation.message);
    const auto cross = obs::analysis::audit_against_result(ledger, row.sim);
    if (!cross.ok) out.fail("ledger vs result of row " + row.id + ": " +
                            cross.message);
  }
  return audited;
}

/// The per-layer metrics of layers this workload never calls — the
/// campaign runner and the server — emitted as explicit zeros.
void report_off_path_zeros(Result& out) {
  const std::pair<const char*, const char*> off_path[] = {
      {"campaign.artifact_load_ms", "ms"},
      {"campaign.journal_append_ms", "ms"},
      {"campaign.parallel_efficiency", "ratio"},
      {"serve.engine_decide_us.dbn", "us"},
      {"serve.engine_decide_us.no_controller", "us"},
      {"serve.encode_us", "us"},
      {"serve.decode_us", "us"},
      {"serve.handoff_us", "us"},
      {"serve.reload_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.timeouts", "count"},
      {"serve.loadgen_late_us", "us"}};
  for (const auto& [name, unit] : off_path) out.metric(name, 0.0, unit);
}

bool same_rows(const std::vector<core::ComparisonRow>& lib,
               const std::vector<TracedRow>& traced) {
  if (lib.size() != traced.size()) return false;
  for (std::size_t i = 0; i < lib.size(); ++i)
    if (lib[i].id != traced[i].id ||
        lib[i].dmr != traced[i].sim.overall_dmr() ||
        lib[i].energy_utilization != traced[i].sim.energy_utilization())
      return false;
  return true;
}

}  // namespace

std::size_t run_pipeline_wam(const Args& args, Result& out) {
  util::ThreadPool::set_global_threads(kThreads);
  const core::PipelineConfig pcfg = pipeline_config(args.scale);

  // Set-up: making the input sets (~10 ms). It is repeated, untimed by the
  // passes, at the start of every cycle over the sets, so its median
  // samples the whole run and not only the host's state in its first
  // milliseconds.
  std::vector<Inputs> inputs;
  std::vector<double> setup_s, generate_ms;
  const auto set_up = [&] {
    inputs.clear();
    const auto t0 = Clock::now();
    for (std::size_t v = 0; v < kVariants; ++v) {
      const auto t1 = Clock::now();
      inputs.push_back(make_inputs(args.scale, args.seed * kVariants + v));
      generate_ms.push_back(ms_since(t1));
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  };
  set_up();

  // Every pass must reproduce the first pass on the same input set.
  std::vector<std::vector<double>> expected(kVariants);
  std::vector<double> proposed_dmr(kVariants, 0.0);
  const auto check_pass = [&](std::size_t v, const Pass& pass) {
    out.attempt();
    if (expected[v].empty()) {
      expected[v] = fingerprint(pass);
      proposed_dmr[v] = core::row_of(pass.rows, "proposed").dmr;
    } else if (fingerprint(pass) != expected[v]) {
      out.fail("pipeline pass outputs differ from the first pass on input " +
               std::to_string(v));
    }
  };
  (void)library_pass(inputs[0], pcfg);  // Warm-up: allocator, page faults.

  // Whole cycles over the input sets, until the time is spent.
  const double budget_ms = args.seconds * 1000.0;
  const auto t0 = Clock::now();
  const auto more = [&](std::size_t done) {
    return done % kVariants != 0 || done < 2 * kVariants ||
           ms_since(t0) < budget_ms;
  };
  std::vector<double> pass_ms;
  if (!args.trace) {
    double total_ms = 0.0;
    for (std::size_t i = 0; more(i); ++i) {
      if (i % kVariants == 0) set_up();
      const Pass pass = library_pass(inputs[i % kVariants], pcfg);
      pass_ms.push_back(pass.ms);
      total_ms += pass.ms;
      check_pass(i % kVariants, pass);
    }
    // The sets differ in how much work a pass is, so pooled pass times
    // cluster by set and a pooled median jumps between the clusters: p50 is
    // the median per set, averaged over the sets.
    double p50_ms = 0.0, dmr = 0.0;
    for (std::size_t v = 0; v < kVariants; ++v) {
      std::vector<double> of_set;
      for (std::size_t i = v; i < pass_ms.size(); i += kVariants)
        of_set.push_back(pass_ms[i]);
      p50_ms += median(std::move(of_set)) / static_cast<double>(kVariants);
      dmr += proposed_dmr[v] / static_cast<double>(kVariants);
    }
    out.metric("setup_s", median(setup_s), "s");
    out.metric("latency_p50_ms", p50_ms, "ms");
    out.metric("latency_tail_ms", tail(pass_ms), "ms");
    out.metric("throughput_per_s",
               1000.0 * static_cast<double>(pass_ms.size()) / total_ms, "1/s");
    out.metric("proposed_dmr", dmr, "ratio");
  } else {
    std::vector<double> traced_ms, coverage;
    std::vector<LayerTimes> layers;
    bool faithful = true;
    for (std::size_t i = 0; more(i); ++i) {
      if (i % kVariants == 0) set_up();
      const Inputs& in = inputs[i % kVariants];
      const Pass pass = library_pass(in, pcfg);
      pass_ms.push_back(pass.ms);
      check_pass(i % kVariants, pass);

      LayerTimes times;
      const auto t1 = Clock::now();
      const core::TrainedController trained =
          traced_train_pipeline(in.graph, in.training, in.node, pcfg, times);
      const std::vector<TracedRow> rows = traced_comparison(
          in.graph, in.held_out, in.node, &trained, pcfg.dp, nullptr, times);
      traced_ms.push_back(ms_since(t1));
      coverage.push_back(times.covered_ms() / traced_ms.back());
      layers.push_back(times);
      faithful = faithful && trained.train_mse == pass.trained.train_mse &&
                 trained.oracle_dmr == pass.trained.oracle_dmr &&
                 trained.n_samples == pass.trained.n_samples &&
                 same_rows(pass.rows, rows);
    }
    report_layers(layers, out);
    out.metric("solar.generate_ms", median(generate_ms), "ms");
    out.metric("trace.coverage", median(coverage), "ratio");
    out.metric("trace.overhead_pct",
               100.0 * (median(traced_ms) / median(pass_ms) - 1.0), "%");
    out.metric("trace.faithful", faithful ? 1.0 : 0.0, "bool");
    if (!faithful)
      out.fail("the recomposed pipeline differs from the library's outputs");
    report_off_path_zeros(out);

    // One more library pass with the library's own counters on, outside
    // every timed region, for the Pareto subset-evaluation count.
    obs::MetricsRegistry::global().reset();
    obs::set_enabled(true);
    (void)library_pass(inputs[0], pcfg);
    obs::set_enabled(false);
    out.metric("sched.pareto_subset_evals",
               static_cast<double>(
                   obs::MetricsRegistry::global().snapshot().counter_or(
                       "sched.pareto.subset_evals")),
               "count");
  }

  // Output checks, outside the timed region: an event-recording pass on
  // every input set must reproduce the timed passes and close the energy
  // ledger on every comparison row.
  for (std::size_t v = 0; v < kVariants; ++v) {
    const Pass audited = library_pass(inputs[v], pcfg, /*record_events=*/true);
    check_pass(v, audited);
    out.attempt(audit_rows(audited, v == 0 ? args.tamper : Tamper::kNone, out));
  }
  if (!args.trace) out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return kThreads;
}

}  // namespace perfbench

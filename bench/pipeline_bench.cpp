// Wall-clock benchmark of the offline pipeline: train_pipeline plus the
// policy comparison on the same trace, run end to end on the paper pipeline
// configuration (memoized DP, fused ANN kernels) at 1, 2 and N threads (N
// from SOLSCHED_THREADS or hardware concurrency).
//
// Timing runs execute with observability off (the disabled path is the one
// the 5%-of-PR1 budget is measured against). A separate instrumented pass
// then re-runs the pipeline with solsched::obs enabled and dumps:
//  - a "metrics" section into BENCH_pipeline.json (cache hit rate, DP
//    evaluations, per-stage span times) taken from the metrics registry;
//  - pipeline_bench.metrics.json — the full registry snapshot;
//  - pipeline_bench.trace.json — Chrome trace_event JSON (chrome://tracing);
//  - pipeline_bench.events.jsonl — the Optimal row's simulation event trace.
// The bench asserts nothing: determinism guarantees are covered by tests.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "campaign/runner.hpp"
#include "core/report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/analysis/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_trace.hpp"
#include "obs/span.hpp"
#include "sched/lsa_inter.hpp"
#include "util/thread_pool.hpp"

using namespace solsched;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kTrainDays = 2;
constexpr std::size_t kNCaps = 4;
constexpr std::uint64_t kSeed = 2015;
constexpr int kReps = 3;  ///< Best-of-reps to shed scheduler noise.

struct RunResult {
  double total_ms = 0.0;
  double train_ms = 0.0;
  double compare_ms = 0.0;
  double train_mse = 0.0;
  double oracle_dmr = 0.0;
  double optimal_row_dmr = 0.0;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

RunResult run_once(std::size_t threads) {
  util::ThreadPool::set_global_threads(threads);

  const auto grid = bench::paper_grid();
  const auto gen = bench::paper_generator(kSeed);
  const auto trace =
      gen.generate_days(kTrainDays, grid, solar::DayKind::kPartlyCloudy);
  const auto graph = task::wam_benchmark();
  const nvp::NodeConfig node = bench::paper_node();
  const core::PipelineConfig config = bench::paper_pipeline(kNCaps);

  RunResult result;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    const core::TrainedController trained =
        core::train_pipeline(graph, trace, node, config);
    const auto t1 = Clock::now();
    core::ComparisonConfig cmp;
    cmp.dp = config.dp;
    const auto rows = core::run_comparison(graph, trace, node, &trained, cmp);
    const auto t2 = Clock::now();

    const double total = ms_between(t0, t2);
    if (rep == 0 || total < result.total_ms) {
      result.total_ms = total;
      result.train_ms = ms_between(t0, t1);
      result.compare_ms = ms_between(t1, t2);
      result.train_mse = trained.train_mse;
      result.oracle_dmr = trained.oracle_dmr;
      result.optimal_row_dmr = core::row_of(rows, "optimal").dmr;
    }
  }
  return result;
}

/// One pipeline run with the full observability stack on. Returns the
/// registry snapshot; writes the Chrome trace and the Optimal row's
/// simulation event trace next to the binary.
obs::MetricsSnapshot instrumented_pass(std::size_t threads) {
  util::ThreadPool::set_global_threads(threads);
  obs::set_enabled(true);
  obs::set_trace_events_enabled(true);
  obs::clear_trace_events();
  obs::MetricsRegistry::global().reset();

  const auto grid = bench::paper_grid();
  const auto gen = bench::paper_generator(kSeed);
  const auto trace =
      gen.generate_days(kTrainDays, grid, solar::DayKind::kPartlyCloudy);
  const auto graph = task::wam_benchmark();
  const nvp::NodeConfig node = bench::paper_node();
  const core::PipelineConfig config = bench::paper_pipeline(kNCaps);

  const core::TrainedController trained =
      core::train_pipeline(graph, trace, node, config);
  core::ComparisonConfig cmp;
  cmp.dp = config.dp;
  cmp.record_events = true;
  const auto rows = core::run_comparison(graph, trace, node, &trained, cmp);

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();

  if (!obs::write_chrome_trace("pipeline_bench.trace.json"))
    std::fprintf(stderr, "cannot write pipeline_bench.trace.json\n");
  core::write_text_file("pipeline_bench.metrics.json", snapshot.to_json());
  const core::ComparisonRow& optimal = core::row_of(rows, "optimal");
  if (optimal.events)
    core::write_text_file("pipeline_bench.events.jsonl",
                          optimal.events->to_jsonl());

  obs::set_trace_events_enabled(false);
  obs::set_enabled(false);
  return snapshot;
}

/// Distinct instrumented subsystems present in the snapshot (the acceptance
/// bar is >= 6: pipeline stages, DP oracle, option cache, thread pool, node
/// sim, migration/storage ...).
std::vector<std::string> covered_sites(const obs::MetricsSnapshot& snapshot) {
  const std::vector<std::string> families = {
      "pipeline.",  "sched.dp.",           "sched.option_cache.",
      "sched.pareto.", "util.thread_pool.", "nvp.sim.",
      "storage.",   "experiment.",         "span."};
  std::vector<std::string> present;
  for (const auto& family : families) {
    bool found = false;
    for (const auto& [name, total] : snapshot.counters)
      if (name.rfind(family, 0) == 0) found = true;
    for (const auto& [name, value] : snapshot.gauges)
      if (name.rfind(family, 0) == 0) found = true;
    for (const auto& h : snapshot.histograms)
      if (h.name.rfind(family, 0) == 0) found = true;
    if (found) present.push_back(family);
  }
  return present;
}

/// Fault-hook overhead probe: the same simulation three ways — no injector,
/// an attached-but-inactive plan (the contractual ~zero-overhead case), and
/// an active blackout+sensor plan. Obs-disabled, best of kReps each.
struct FaultBench {
  double none_ms = 0.0;
  double inactive_ms = 0.0;
  double active_ms = 0.0;
  std::size_t pf_slots = 0;  ///< Power-failure slots of the active run.
};

FaultBench fault_overhead_bench() {
  util::ThreadPool::set_global_threads(1);
  const auto grid = bench::paper_grid();
  const auto gen = bench::paper_generator(kSeed);
  const auto trace =
      gen.generate_days(kTrainDays, grid, solar::DayKind::kPartlyCloudy);
  const auto graph = task::wam_benchmark();
  const nvp::NodeConfig node = bench::paper_node();

  // The injector must be expanded over the multi-day grid of the trace,
  // not the one-day template grid.
  const fault::FaultInjector inactive(fault::FaultPlan{}, trace.grid());
  const fault::FaultInjector active(
      fault::FaultPlan::parse("blackout=2,dropout=0.02,glitch=0.01"),
      trace.grid());

  FaultBench result;
  const auto time_one = [&](const fault::FaultInjector* fx, double& best_ms,
                            std::size_t* pf_slots) {
    for (int rep = 0; rep < kReps; ++rep) {
      sched::LsaInterScheduler policy;
      const auto t0 = Clock::now();
      const nvp::SimResult sim =
          nvp::simulate(graph, trace, policy, node, nullptr, fx);
      const double ms = ms_between(t0, Clock::now());
      if (rep == 0 || ms < best_ms) best_ms = ms;
      if (pf_slots) *pf_slots = sim.total_power_failure_slots();
    }
  };
  time_one(nullptr, result.none_ms, nullptr);
  time_one(&inactive, result.inactive_ms, nullptr);
  time_one(&active, result.active_ms, &result.pf_slots);
  return result;
}

/// Campaign engine probe: one 16-shard sweep cold (fresh artifact cache,
/// trains once) and again warm (new campaign directory, shared cache, zero
/// trainings) — the wall-clock value of content-addressed dedup.
struct CampaignBench {
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::size_t shards = 0;
  std::size_t cold_trainings = 0;
  std::size_t warm_trainings = 0;
  std::size_t warm_artifact_hits = 0;
};

CampaignBench campaign_sweep_bench(std::size_t threads) {
  util::ThreadPool::set_global_threads(threads);
  const std::string root = "pipeline_bench.campaign";
  std::filesystem::remove_all(root);

  campaign::CampaignConfig config;
  config.spec = campaign::CampaignSpec::parse(
      "workloads=wam;seeds=1..8;intensities=0,1;fault=blackout=2;"
      "schedulers=inter,proposed;periods=24;slots=20;days=1;train_days=1;"
      "n_caps=2;dp_buckets=8;pretrain_epochs=2;finetune_epochs=20");
  config.cache_dir = root + "/cache";

  CampaignBench result;
  config.dir = root + "/cold";
  auto t0 = Clock::now();
  const campaign::CampaignResult cold = campaign::run_campaign(config);
  result.cold_ms = ms_between(t0, Clock::now());
  result.shards = cold.total_shards;
  result.cold_trainings = cold.trainings;

  config.dir = root + "/warm";
  t0 = Clock::now();
  const campaign::CampaignResult warm = campaign::run_campaign(config);
  result.warm_ms = ms_between(t0, Clock::now());
  result.warm_trainings = warm.trainings;
  result.warm_artifact_hits = warm.artifact_hits;
  return result;
}

/// Telemetry overhead probe: the same warm 16-shard campaign with the
/// telemetry layer disabled (SOLSCHED_OBS unset: bus never constructed)
/// and enabled (event stream + status snapshots + watchdog thread). Both
/// land in the "runs" object as campaign_telem_off / campaign_telem_on so
/// check-bench gates them against the committed baseline — the enabled run
/// must stay within noise of the disabled one.
struct TelemBench {
  double off_ms = 0.0;
  double on_ms = 0.0;
};

TelemBench telemetry_overhead_bench(std::size_t threads,
                                    const std::string& cache_dir) {
  util::ThreadPool::set_global_threads(threads);
  const std::string root = "pipeline_bench.telem";
  std::filesystem::remove_all(root);

  campaign::CampaignConfig config;
  config.spec = campaign::CampaignSpec::parse(
      "workloads=wam;seeds=1..8;intensities=0,1;fault=blackout=2;"
      "schedulers=inter,proposed;periods=24;slots=20;days=1;train_days=1;"
      "n_caps=2;dp_buckets=8;pretrain_epochs=2;finetune_epochs=20");
  config.cache_dir = cache_dir;  // Warm: measures the shard loop, not training.

  TelemBench result;
  const auto time_one = [&](bool telemetry, double& best_ms) {
    obs::set_enabled(telemetry);
    for (int rep = 0; rep < kReps; ++rep) {
      config.dir = root + (telemetry ? "/on" : "/off");
      std::filesystem::remove_all(config.dir);  // Fresh: no resume skips.
      const auto t0 = Clock::now();
      campaign::run_campaign(config);
      const double ms = ms_between(t0, Clock::now());
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    obs::set_enabled(false);
  };
  time_one(false, result.off_ms);
  time_one(true, result.on_ms);
  return result;
}

void print_json_entry(std::FILE* f, const std::string& name,
                      const RunResult& r, std::size_t threads, bool last) {
  std::fprintf(f,
               "    \"%s\": {\n"
               "      \"threads\": %zu,\n"
               "      \"total_ms\": %.2f,\n"
               "      \"train_ms\": %.2f,\n"
               "      \"compare_ms\": %.2f,\n"
               "      \"train_mse\": %.6f,\n"
               "      \"oracle_dmr\": %.6f,\n"
               "      \"optimal_row_dmr\": %.6f\n"
               "    }%s\n",
               name.c_str(), threads, r.total_ms, r.train_ms, r.compare_ms,
               r.train_mse, r.oracle_dmr, r.optimal_row_dmr, last ? "" : ",");
}

}  // namespace

int main() {
  const std::size_t n_env = util::ThreadPool::thread_count_from_env();
  std::vector<std::size_t> fast_threads{1, 2};
  if (n_env > 2) fast_threads.push_back(n_env);

  bench::print_header("pipeline_bench",
                      "offline pipeline wall-clock (train + comparison)");
  std::printf("workload: WAM, %zu days, %zu capacitors, seed %llu\n",
              kTrainDays, kNCaps,
              static_cast<unsigned long long>(kSeed));

  // Timing passes measure the obs-disabled path.
  obs::set_enabled(false);

  std::vector<RunResult> fast;
  for (std::size_t t : fast_threads) {
    fast.push_back(run_once(t));
    const RunResult& r = fast.back();
    std::printf("fast (%zu thread%s): %.1f ms (train %.1f + compare %.1f)\n",
                t, t == 1 ? "" : "s", r.total_ms, r.train_ms, r.compare_ms);
  }

  // Instrumented pass: metrics + Chrome trace + event trace, off the clock.
  const obs::MetricsSnapshot snapshot =
      instrumented_pass(fast_threads.back());
  const std::uint64_t hits = snapshot.counter_or("sched.option_cache.hits");
  const std::uint64_t misses = snapshot.counter_or("sched.option_cache.misses");
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  const std::vector<std::string> sites = covered_sites(snapshot);
  std::printf("instrumented pass: hit rate %.0f%%, %llu DP evaluations, "
              "%zu instrumented sites (",
              100.0 * hit_rate,
              static_cast<unsigned long long>(
                  snapshot.counter_or("sched.dp.evaluations")),
              sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i)
    std::printf("%s%s", i ? " " : "", sites[i].c_str());
  std::printf(")\n");

  // Fault-hook overhead: the inactive-plan run must sit within noise of the
  // no-injector run (the hooks are pointer tests on the hot path).
  const FaultBench fb = fault_overhead_bench();
  std::printf("fault hooks: none %.1f ms, inactive plan %.1f ms (%+.1f%%), "
              "active plan %.1f ms (%zu pf slots)\n",
              fb.none_ms, fb.inactive_ms,
              fb.none_ms > 0.0
                  ? 100.0 * (fb.inactive_ms - fb.none_ms) / fb.none_ms
                  : 0.0,
              fb.active_ms, fb.pf_slots);

  // Campaign sweep: cold (train once) vs warm (pure cache) wall-clock.
  const CampaignBench cb = campaign_sweep_bench(fast_threads.back());
  std::printf("campaign sweep: %zu shards cold %.1f ms (%zu trainings), "
              "warm %.1f ms (%zu trainings, %zu artifact hits)\n",
              cb.shards, cb.cold_ms, cb.cold_trainings, cb.warm_ms,
              cb.warm_trainings, cb.warm_artifact_hits);

  // Telemetry overhead: the warm sweep again, with and without the live
  // telemetry layer (reuses the campaign bench's artifact cache).
  const TelemBench tb = telemetry_overhead_bench(
      fast_threads.back(), "pipeline_bench.campaign/cache");
  std::printf("campaign telemetry: off %.1f ms, on %.1f ms (%+.1f%%)\n",
              tb.off_ms, tb.on_ms,
              tb.off_ms > 0.0 ? 100.0 * (tb.on_ms - tb.off_ms) / tb.off_ms
                              : 0.0);

  std::FILE* f = std::fopen("BENCH_pipeline.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_pipeline.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": \"wam\",\n"
               "  \"train_days\": %zu,\n"
               "  \"n_caps\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"reps\": %d,\n",
               kTrainDays, kNCaps, static_cast<unsigned long long>(kSeed),
               kReps);
  std::fprintf(f, "  \"runs\": {\n");
  for (std::size_t i = 0; i < fast.size(); ++i)
    print_json_entry(f, "fast_" + std::to_string(fast_threads[i]) + "t",
                     fast[i], fast_threads[i], /*last=*/false);
  std::fprintf(f,
               "    \"campaign_telem_off\": {\n"
               "      \"threads\": %zu,\n"
               "      \"total_ms\": %.2f\n"
               "    },\n"
               "    \"campaign_telem_on\": {\n"
               "      \"threads\": %zu,\n"
               "      \"total_ms\": %.2f\n"
               "    }\n",
               fast_threads.back(), tb.off_ms, fast_threads.back(), tb.on_ms);
  std::fprintf(f, "  },\n");

  // Metrics from the instrumented pass (obs enabled, record_events on); the
  // timing entries above are obs-disabled and carry no counters by design.
  std::fprintf(f, "  \"metrics\": {\n");
  std::fprintf(f,
               "    \"threads\": %zu,\n"
               "    \"cache_hits\": %llu,\n"
               "    \"cache_misses\": %llu,\n"
               "    \"cache_hit_rate\": %.4f,\n"
               "    \"dp_evaluations\": %llu,\n"
               "    \"pareto_calls\": %llu,\n"
               "    \"pareto_subset_evals\": %llu,\n"
               "    \"sim_periods\": %llu,\n"
               "    \"instrumented_sites\": %zu,\n",
               fast_threads.back(), static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses), hit_rate,
               static_cast<unsigned long long>(
                   snapshot.counter_or("sched.dp.evaluations")),
               static_cast<unsigned long long>(
                   snapshot.counter_or("sched.pareto.calls")),
               static_cast<unsigned long long>(
                   snapshot.counter_or("sched.pareto.subset_evals")),
               static_cast<unsigned long long>(
                   snapshot.counter_or("nvp.sim.periods")),
               sites.size());
  std::fprintf(f, "    \"span_us\": {");
  const std::vector<std::string> spans = {"pipeline.sizing", "pipeline.oracle",
                                          "pipeline.dbn_train", "dp.run",
                                          "dp.pareto_options"};
  bool first = true;
  for (const auto& s : spans) {
    const std::uint64_t us = snapshot.counter_or("span." + s + ".total_us");
    const std::uint64_t calls = snapshot.counter_or("span." + s + ".calls");
    if (calls == 0) continue;
    std::fprintf(f, "%s\n      \"%s\": {\"total_us\": %llu, \"calls\": %llu}",
                 first ? "" : ",", s.c_str(),
                 static_cast<unsigned long long>(us),
                 static_cast<unsigned long long>(calls));
    first = false;
  }
  std::fprintf(f, "\n    }\n  },\n");

  std::fprintf(f,
               "  \"fault\": {\n"
               "    \"none_ms\": %.3f,\n"
               "    \"inactive_plan_ms\": %.3f,\n"
               "    \"active_plan_ms\": %.3f,\n"
               "    \"active_pf_slots\": %zu\n"
               "  },\n",
               fb.none_ms, fb.inactive_ms, fb.active_ms, fb.pf_slots);

  std::fprintf(f,
               "  \"campaign\": {\n"
               "    \"shards\": %zu,\n"
               "    \"cold_ms\": %.3f,\n"
               "    \"warm_ms\": %.3f,\n"
               "    \"cold_trainings\": %zu,\n"
               "    \"warm_trainings\": %zu,\n"
               "    \"warm_artifact_hits\": %zu\n"
               "  }\n",
               cb.shards, cb.cold_ms, cb.warm_ms, cb.cold_trainings,
               cb.warm_trainings, cb.warm_artifact_hits);

  std::fprintf(f, "}\n");
  std::fclose(f);

  // Run manifest for this bench invocation, diffable across machines and
  // commits with `solsched-inspect diff`.
  {
    const nvp::NodeConfig node = bench::paper_node();
    obs::analysis::ManifestInfo info;
    info.workload = "pipeline_bench";
    info.seeds = {kSeed};
    info.node = &node;
    info.trace_path = "pipeline_bench.events.jsonl";
    try {
      obs::analysis::write_manifest("pipeline_bench.manifest.json", info);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
    }
  }

  std::printf("wrote BENCH_pipeline.json, pipeline_bench.metrics.json, "
              "pipeline_bench.trace.json, pipeline_bench.events.jsonl, "
              "pipeline_bench.manifest.json\n");
  return 0;
}

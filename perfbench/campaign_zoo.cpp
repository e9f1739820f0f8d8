// campaign_zoo: a paper-scale sweep — wam/ecg/shm x evaluation seeds x
// fault intensities {0, 1} — with every registry scheduler, against a warm
// artifact cache, so no pass trains (an ann change should not move it).
// The time goes to the Optimal row's DP, to nvp::simulate for the other
// policies, and to the fsync'd journal appends.
//
// Set-up pre-warms the artifact cache (three trainings, repeated kSetups
// times over the run for a median). Each timed pass runs campaign::run_campaign into a
// fresh campaign directory. The traced run recomposes every shard from
// public calls — trace generation, ArtifactCache::load, the comparison
// rows, Journal::append — serially, next to library passes.
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/artifact_cache.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace solsched;

constexpr std::size_t kThreads = 4;
/// Cache pre-warms per run; set-up time is their median.
constexpr int kSetups = 9;

campaign::CampaignSpec make_spec(Scale scale, std::uint64_t seed) {
  campaign::CampaignSpec spec;
  spec.workloads = {"wam", "ecg", "shm"};
  const std::uint64_t n_seeds = scale == Scale::kPaper ? 4 : 1;
  spec.seeds.clear();
  for (std::uint64_t s = 1; s <= n_seeds; ++s)
    spec.seeds.push_back(seed * n_seeds + s);
  spec.intensities = {0.0, 1.0};
  spec.fault_spec = "blackout=3";  // The repository's documented campaign plan.
  spec.eval_day0 = solar::DayKind::kPartlyCloudy;
  spec.schedulers = kPolicyIds;
  const solar::TimeGrid grid = day_grid(scale);
  spec.periods = grid.n_periods;
  spec.slots = grid.n_slots;
  spec.dt_s = grid.dt_s;
  const core::PipelineConfig pcfg = pipeline_config(scale);
  spec.n_caps = pcfg.n_caps;
  if (scale == Scale::kTiny) {
    spec.dp_buckets = pcfg.dp.energy_buckets;
    spec.pretrain_epochs = pcfg.dbn.pretrain.epochs;
    spec.finetune_epochs = pcfg.dbn.finetune.epochs;
  }
  return spec;
}

/// The DP knobs the runner gives the comparison's Optimal row.
sched::OptimalConfig comparison_dp(const campaign::CampaignSpec& spec) {
  sched::OptimalConfig dp = core::PipelineConfig::default_dp();
  if (spec.dp_buckets > 0) dp.energy_buckets = spec.dp_buckets;
  return dp;
}

campaign::ShardRow shard_row(const TracedRow& row) {
  campaign::ShardRow out;
  out.algo = row.algo;
  out.dmr = row.sim.overall_dmr();
  out.energy_utilization = row.sim.energy_utilization();
  out.migration_efficiency = row.sim.migration_efficiency();
  out.brownouts = row.sim.total_brownouts();
  out.solar_j = row.sim.total_solar_j();
  out.served_j = row.sim.total_served_j();
  out.loss_j = row.sim.total_loss_j();
  out.power_failure_slots = row.sim.total_power_failure_slots();
  out.fallbacks = row.sim.total_fallbacks();
  return out;
}

struct Pass {
  double ms = 0.0;
  campaign::CampaignResult result;
};

Pass library_pass(const campaign::CampaignSpec& spec, const std::string& dir,
                  const std::string& cache_dir) {
  campaign::CampaignConfig config;
  config.spec = spec;
  config.dir = dir;
  config.cache_dir = cache_dir;
  Pass pass;
  const auto t0 = Clock::now();
  pass.result = campaign::run_campaign(config);
  pass.ms = ms_since(t0);
  std::filesystem::remove_all(dir);
  return pass;
}

/// Layer times of one recomposed pass on top of LayerTimes.
struct ShardLayers {
  LayerTimes times;
  double generate_ms = 0.0;
  double artifact_load_ms = 0.0;
  double journal_append_ms = 0.0;
  double wall_ms = 0.0;
  bool faithful = true;
};

/// Every shard of one pass, serially, from public calls. `reference` is a
/// library pass over the same spec: it supplies the artifact keys to load
/// and the records the recomposition must reproduce byte for byte.
ShardLayers traced_pass(const campaign::CampaignSpec& spec,
                        const std::string& dir, const std::string& cache_dir,
                        const campaign::CampaignResult& reference) {
  ShardLayers out;
  const auto t0 = Clock::now();
  std::filesystem::create_directories(dir);
  campaign::Journal journal(dir + "/journal.jsonl", spec.digest());
  const campaign::ArtifactCache cache(cache_dir);
  nvp::NodeConfig node;
  node.grid = spec.grid(1);

  std::vector<std::shared_ptr<core::TrainedController>> controllers;
  std::vector<std::string> loaded;
  const fault::FaultPlan base_plan = spec.fault_plan();
  for (const campaign::Scenario& s : spec.expand()) {
    const campaign::ShardRecord& ref = reference.records.at(s.shard);
    std::shared_ptr<core::TrainedController> trained;
    for (std::size_t i = 0; i < loaded.size(); ++i)
      if (loaded[i] == s.workload) trained = controllers[i];
    if (!trained) {
      trained = std::make_shared<core::TrainedController>();
      const auto t1 = Clock::now();
      if (!cache.load(ref.artifact_key, trained.get())) out.faithful = false;
      out.artifact_load_ms += ms_since(t1);
      loaded.push_back(s.workload);
      controllers.push_back(trained);
    }

    const task::TaskGraph graph =
        campaign::CampaignSpec::workload_graph(s.workload);
    const auto t1 = Clock::now();
    const solar::SolarTrace trace = spec.generator(s.seed).generate_days(
        spec.eval_days, spec.grid(1), spec.eval_day0);
    out.generate_ms += ms_since(t1);
    const fault::FaultPlan plan = base_plan.scaled(s.intensity);
    std::unique_ptr<fault::FaultInjector> injector;
    if (plan.any())
      injector = std::make_unique<fault::FaultInjector>(plan, trace.grid());

    campaign::ShardRecord record;
    record.shard = s.shard;
    record.key = s.key();
    record.workload = s.workload;
    record.seed = s.seed;
    record.intensity = s.intensity;
    record.artifact_key = ref.artifact_key;
    record.artifact_hit = ref.artifact_hit;
    record.controller_fingerprint = ref.controller_fingerprint;
    for (const TracedRow& row :
         traced_comparison(graph, trace, node, trained.get(),
                           comparison_dp(spec), injector.get(), out.times))
      record.rows.push_back(shard_row(row));

    const auto t2 = Clock::now();
    journal.append(record);
    out.journal_append_ms += ms_since(t2);
    out.faithful = out.faithful && record.to_json() == ref.to_json();
  }
  out.wall_ms = ms_since(t0);
  std::filesystem::remove_all(dir);
  return out;
}

double mean_proposed_dmr(const campaign::CampaignResult& result) {
  const std::string& name =
      sched::Registry::global().at("proposed").display_name;
  double sum = 0.0;
  std::size_t n = 0;
  for (const campaign::ShardRecord& record : result.records)
    for (const campaign::ShardRow& row : record.rows)
      if (row.algo == name) {
        sum += row.dmr;
        ++n;
      }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

std::size_t run_campaign_zoo(const Args& args, Result& out) {
  util::ThreadPool::set_global_threads(kThreads);
  const WorkDir work("campaign_zoo");
  const campaign::CampaignSpec spec = make_spec(args.scale, args.seed);
  const std::string cache_dir = work.sub("cache");

  // Set-up: pre-warm the artifact cache with one cheap shard per workload;
  // the trained artifacts are the ones every pass of `spec` reuses. The
  // first pre-warm fills the cache the passes read. The untimed run
  // repeats it into a scratch cache, spread over the run, so the set-up
  // median samples the whole run and not only the host's state at its
  // start.
  campaign::CampaignSpec prewarm = spec;
  prewarm.seeds = {spec.seeds.front()};
  prewarm.intensities = {0.0};
  prewarm.schedulers = {"proposed"};
  std::vector<double> setup_s;
  const auto set_up = [&](const std::string& dir) {
    std::filesystem::remove_all(dir);
    const Pass warm = library_pass(prewarm, work.sub("prewarm"), dir);
    setup_s.push_back(warm.ms / 1000.0);
    if (warm.result.trainings != spec.workloads.size())
      throw std::runtime_error("pre-warm trained " +
                               std::to_string(warm.result.trainings) +
                               " controllers");
  };
  set_up(cache_dir);

  // Every pass must run warm, finish, and aggregate to the same bytes.
  std::string expected_aggregate;
  std::size_t pass_index = 0;
  const auto run_pass = [&](bool count) {
    Pass pass = library_pass(
        spec, work.sub("pass-" + std::to_string(pass_index++)), cache_dir);
    const campaign::CampaignResult& r = pass.result;
    std::string aggregate = campaign::aggregate_json(r.records);
    if (args.tamper == Tamper::kAggregate && pass_index == 3)
      aggregate += " ";
    if (!count) {
      expected_aggregate = aggregate;
      return pass;
    }
    out.attempt(r.total_shards);
    if (r.trainings != 0)
      out.fail("warm pass trained " + std::to_string(r.trainings));
    if (!r.finished || r.executed != r.total_shards)
      out.fail("pass journaled " + std::to_string(r.executed) + " of " +
               std::to_string(r.total_shards) + " shards");
    if (aggregate != expected_aggregate)
      out.fail("aggregate differs from the first pass");
    return pass;
  };
  const Pass first = run_pass(/*count=*/false);  // Warm-up and reference.

  const double budget_ms = args.seconds * 1000.0;
  const auto t0 = Clock::now();
  std::vector<double> pass_ms;
  if (!args.trace) {
    double total_ms = 0.0;
    while (ms_since(t0) < budget_ms || pass_ms.size() < 16) {
      if (static_cast<double>(setup_s.size()) <
          kSetups * ms_since(t0) / budget_ms)
        set_up(work.sub("setup-cache"));
      pass_ms.push_back(run_pass(true).ms);
      total_ms += pass_ms.back();
    }
    out.metric("setup_s", median(setup_s), "s");
    out.metric("latency_p50_ms", median(pass_ms), "ms");
    out.metric("latency_tail_ms", tail(pass_ms), "ms");
    out.metric("throughput_per_s",
               1000.0 * static_cast<double>(first.result.total_shards) *
                   static_cast<double>(pass_ms.size()) / total_ms,
               "1/s");
    out.metric("proposed_dmr", mean_proposed_dmr(first.result), "ratio");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    std::vector<double> serial_ms, shard_sum_ms, coverage, generate_ms,
        load_ms, append_ms;
    std::vector<LayerTimes> layers;
    bool faithful = true;
    while (ms_since(t0) < 0.7 * budget_ms || layers.size() < 3) {
      pass_ms.push_back(run_pass(true).ms);
      util::ThreadPool::set_global_threads(1);
      serial_ms.push_back(run_pass(true).ms);
      const ShardLayers traced =
          traced_pass(spec, work.sub("traced"), cache_dir, first.result);
      util::ThreadPool::set_global_threads(kThreads);
      layers.push_back(traced.times);
      shard_sum_ms.push_back(traced.wall_ms);
      generate_ms.push_back(traced.generate_ms);
      load_ms.push_back(traced.artifact_load_ms);
      append_ms.push_back(traced.journal_append_ms);
      coverage.push_back((traced.times.covered_ms() + traced.generate_ms +
                          traced.artifact_load_ms + traced.journal_append_ms) /
                         traced.wall_ms);
      faithful = faithful && traced.faithful;
    }
    report_layers(layers, out);
    out.metric("solar.generate_ms", median(generate_ms), "ms");
    out.metric("campaign.artifact_load_ms", median(load_ms), "ms");
    out.metric("campaign.journal_append_ms", median(append_ms), "ms");
    out.metric("campaign.parallel_efficiency",
               median(shard_sum_ms) /
                   (static_cast<double>(kThreads) * median(pass_ms)),
               "ratio");
    out.metric("trace.coverage", median(coverage), "ratio");
    out.metric("trace.overhead_pct",
               100.0 * (median(shard_sum_ms) / median(serial_ms) - 1.0), "%");

    obs::MetricsRegistry::global().reset();
    obs::set_enabled(true);
    (void)library_pass(spec, work.sub("counted"), cache_dir);
    obs::set_enabled(false);
    out.metric("sched.pareto_subset_evals",
               static_cast<double>(
                   obs::MetricsRegistry::global().snapshot().counter_or(
                       "sched.pareto.subset_evals")),
               "count");

    // The serve layers, serving this campaign's own WAM artifact from its
    // cache: the deployment path after a campaign.
    std::uint64_t wam_key = 0;
    for (const campaign::ShardRecord& record : first.result.records)
      if (record.workload == "wam") wam_key = record.artifact_key;
    faithful = measure_serve_layers(args, cache_dir, wam_key,
                                    0.3 * args.seconds, out) &&
               faithful;
    out.metric("trace.faithful", faithful ? 1.0 : 0.0, "bool");
    if (!faithful)
      out.fail("the recomposed shards or the timed engine differ from the "
               "library's outputs");
  }
  return kThreads;
}

}  // namespace perfbench

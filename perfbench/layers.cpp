#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ann/dbn.hpp"
#include "ann/normalizer.hpp"
#include "nvp/node_sim.hpp"
#include "sched/optimal.hpp"
#include "sched/proposed.hpp"
#include "sizing/cap_sizing.hpp"
#include "solar/trace_generator.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace solsched;

const std::vector<std::string> kPolicyIds = {
    "asap",     "edf",     "duty",  "inter", "intra",
    "proposed", "optimal", "ccedf", "laedf", "greedy"};

namespace {

std::size_t policy_index(const std::string& id) {
  const auto it = std::find(kPolicyIds.begin(), kPolicyIds.end(), id);
  return static_cast<std::size_t>(it - kPolicyIds.begin());
}

/// Forwards to a policy and times its begin_trace — the DP of the Optimal
/// policy, a no-op for the online ones.
class TimedPolicy final : public nvp::Scheduler {
 public:
  explicit TimedPolicy(nvp::Scheduler& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    const auto t0 = Clock::now();
    inner_->begin_trace(graph, config, trace);
    begin_trace_ms_ += ms_since(t0);
  }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override {
    return inner_->begin_period(ctx);
  }
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override {
    return inner_->schedule_slot(ctx);
  }

  double begin_trace_ms() const noexcept { return begin_trace_ms_; }

 private:
  nvp::Scheduler* inner_;
  double begin_trace_ms_ = 0.0;
};

/// The oracle wrapper of train_pipeline: records (observable input, oracle
/// decision) samples while the DP oracle runs, and times the DP.
class Recorder final : public nvp::Scheduler {
 public:
  Recorder(sched::OptimalScheduler& oracle, std::size_t n_slots,
           std::size_t n_caps, std::size_t n_tasks, double alpha_cap)
      : oracle_(&oracle),
        n_slots_(n_slots),
        n_caps_(n_caps),
        n_tasks_(n_tasks),
        alpha_cap_(alpha_cap) {}

  std::string name() const override { return "Recorder"; }
  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    const auto t0 = Clock::now();
    oracle_->begin_trace(graph, config, trace);
    dp_ms_ += ms_since(t0);
  }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override {
    const ann::Vector x = sched::ProposedScheduler::build_input(ctx, n_slots_);
    const nvp::PeriodPlan plan = oracle_->begin_period(ctx);
    const sched::PlannedPeriod& planned =
        oracle_->plan().at(ctx.grid->flat_period(ctx.day, ctx.period));
    ann::Vector y(n_caps_ + 1 + n_tasks_, 0.0);
    y[planned.cap_index] = 1.0;
    y[n_caps_] = util::clamp(planned.alpha / alpha_cap_, 0.0, 1.0);
    for (std::size_t n = 0; n < n_tasks_; ++n)
      y[n_caps_ + 1 + n] = planned.te.empty() || planned.te[n] ? 1.0 : 0.0;
    samples_.push_back(ann::Sample{x, y});
    return plan;
  }
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override {
    return oracle_->schedule_slot(ctx);
  }

  double dp_ms() const noexcept { return dp_ms_; }
  std::vector<ann::Sample> take_samples() { return std::move(samples_); }

 private:
  sched::OptimalScheduler* oracle_;
  std::size_t n_slots_, n_caps_, n_tasks_;
  double alpha_cap_;
  double dp_ms_ = 0.0;
  std::vector<ann::Sample> samples_;
};

/// run_comparison's hardware for the single-storage baselines: the bank
/// capacitor closest to the mean of the per-day sizing optima (largest
/// capacitor without sizing data).
nvp::NodeConfig single_cap_baseline(const nvp::NodeConfig& effective,
                                    const core::TrainedController* trained) {
  nvp::NodeConfig node = effective;
  std::size_t single = 0;
  if (trained && !trained->sizing.daily_optimal_f.empty()) {
    double mean = 0.0;
    for (const double c : trained->sizing.daily_optimal_f) mean += c;
    mean /= static_cast<double>(trained->sizing.daily_optimal_f.size());
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < node.capacities_f.size(); ++i) {
      const double d = std::fabs(node.capacities_f[i] - mean);
      if (d < best) {
        best = d;
        single = i;
      }
    }
  } else {
    for (std::size_t i = 1; i < node.capacities_f.size(); ++i)
      if (node.capacities_f[i] > node.capacities_f[single]) single = i;
  }
  node.initial_cap = single;
  return node;
}

/// Adds one DP run's work. The option cache may be shared with an earlier
/// run (the oracle's cache serves the comparison's Optimal row), so its
/// counters are taken as the delta from `before`.
void add_dp_counts(const sched::OptimalScheduler& dp,
                   const sched::OptionCacheStats& before, LayerTimes& times) {
  const sched::OptionCacheStats after = dp.option_cache_stats();
  times.dp_evaluations += dp.dp_evaluations();
  times.cache_hits += after.hits - before.hits;
  times.cache_misses += after.misses - before.misses;
}

/// Seeded trace generator for the benchmark's day grid. On the tiny grid
/// the clear-sky window is scaled into the shortened day (sunrise at 25 %,
/// sunset at 75 %), as campaign specs do, so tiny runs still see dawn, noon
/// and night.
solar::TraceGenerator trace_generator(Scale scale, std::uint64_t seed) {
  solar::TraceGeneratorConfig config;
  config.seed = seed;
  if (scale == Scale::kTiny) {
    const solar::TimeGrid grid = day_grid(scale);
    config.clear_sky.sunrise_s = 0.25 * grid.day_s();
    config.clear_sky.sunset_s = 0.75 * grid.day_s();
  }
  return solar::TraceGenerator(config);
}

/// Multiply-adds of Dbn::train, times two: CD-1 pretraining costs four
/// visible x hidden products per sample and epoch for each RBM, and
/// fine-tuning three passes (forward, backward, weight gradient) over
/// every MLP layer per sample and epoch.
double dbn_train_flops(std::size_t n_in, std::size_t n_out,
                       const ann::DbnConfig& config, std::size_t samples) {
  std::vector<std::size_t> widths = {n_in};
  widths.insert(widths.end(), config.hidden_sizes.begin(),
                config.hidden_sizes.end());
  widths.push_back(n_out);
  double pretrain_macs = 0.0;
  for (std::size_t l = 0; l + 2 < widths.size(); ++l)
    pretrain_macs += 4.0 * static_cast<double>(widths[l] * widths[l + 1]);
  double finetune_macs = 0.0;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l)
    finetune_macs += 3.0 * static_cast<double>(widths[l] * widths[l + 1]);
  const double n = static_cast<double>(samples);
  return 2.0 * n *
         (pretrain_macs * static_cast<double>(config.pretrain.epochs) +
          finetune_macs * static_cast<double>(config.finetune.epochs));
}

}  // namespace

double LayerTimes::covered_ms() const {
  double sum = sizing_ms + dp_ms + oracle_sim_ms + dbn_train_ms;
  for (const double ms : simulate_ms) sum += ms;
  return sum;
}

core::TrainedController traced_train_pipeline(
    const task::TaskGraph& graph, const solar::SolarTrace& training_trace,
    const nvp::NodeConfig& base, const core::PipelineConfig& config,
    LayerTimes& times) {
  core::TrainedController out;
  out.node = base;
  out.online = config.online;

  sizing::SizingConfig sizing_cfg = config.sizing;
  sizing_cfg.v_low = base.v_low;
  sizing_cfg.v_high = base.v_high;
  sizing_cfg.pmu = base.pmu;
  sizing_cfg.regulators = base.regulators;
  sizing_cfg.leakage = base.leakage;
  auto t0 = Clock::now();
  out.sizing = sizing::size_capacitors(graph, training_trace, config.n_caps,
                                       sizing_cfg);
  times.sizing_ms += ms_since(t0);
  out.node.capacities_f = out.sizing.capacities_f;
  out.node.initial_cap = 0;

  const solar::TimeGrid& grid = training_trace.grid();
  const double alpha_cap = 3.0;
  sched::OptimalConfig dp_cfg = config.dp;
  if (dp_cfg.use_option_cache && !dp_cfg.shared_cache)
    dp_cfg.shared_cache = std::make_shared<sched::PeriodOptionCache>();
  sched::OptimalScheduler oracle(dp_cfg);
  Recorder recorder(oracle, grid.n_slots, out.node.capacities_f.size(),
                    graph.size(), alpha_cap);
  t0 = Clock::now();
  const nvp::SimResult oracle_run =
      nvp::simulate(graph, training_trace, recorder, out.node);
  times.oracle_sim_ms += ms_since(t0) - recorder.dp_ms();
  times.dp_ms += recorder.dp_ms();
  add_dp_counts(oracle, sched::OptionCacheStats{}, times);
  out.oracle_dmr = oracle_run.overall_dmr();
  out.lut = oracle.lut();
  out.option_cache = dp_cfg.shared_cache;
  out.dp_cache_stats = oracle.option_cache_stats();
  std::vector<ann::Sample> samples = recorder.take_samples();
  out.n_samples = samples.size();

  const double solar_max = std::max(1e-6, training_trace.peak_power_w());
  const std::size_t n_in = grid.n_slots + out.node.capacities_f.size() + 1;
  ann::Vector mins(n_in, 0.0), maxs(n_in, 1.0);
  for (std::size_t m = 0; m < grid.n_slots; ++m) maxs[m] = solar_max;
  for (std::size_t h = 0; h < out.node.capacities_f.size(); ++h)
    maxs[grid.n_slots + h] = base.v_high;
  ann::Normalizer norm;
  norm.set_ranges(std::move(mins), std::move(maxs));
  for (auto& s : samples) s.x = norm.transform(s.x);

  const std::size_t n_out = out.node.capacities_f.size() + 1 + graph.size();
  auto dbn = std::make_shared<ann::Dbn>(n_in, n_out, config.dbn);
  t0 = Clock::now();
  const ann::DbnTrainReport report = dbn->train(samples);
  times.dbn_train_ms += ms_since(t0);
  times.train_samples += samples.size();
  times.train_flops += dbn_train_flops(n_in, n_out, config.dbn, samples.size());
  out.train_mse = report.finetune_loss;

  out.model.dbn = std::move(dbn);
  out.model.input_norm = std::move(norm);
  out.model.capacities_f = out.node.capacities_f;
  out.model.n_slots = grid.n_slots;
  out.model.n_tasks = graph.size();
  out.model.alpha_cap = alpha_cap;
  return out;
}

std::vector<TracedRow> traced_comparison(
    const task::TaskGraph& graph, const solar::SolarTrace& trace,
    const nvp::NodeConfig& node, const core::TrainedController* trained,
    const sched::OptimalConfig& dp, const fault::FaultInjector* faults,
    LayerTimes& times) {
  const nvp::NodeConfig& effective = trained ? trained->node : node;
  const nvp::NodeConfig baseline_node = single_cap_baseline(effective, trained);

  sched::SchedulerContext ctx;
  ctx.dp = dp;
  ctx.faults = faults;
  if (trained) {
    ctx.model = &trained->model;
    ctx.online = trained->online;
    if (!ctx.dp.shared_cache) ctx.dp.shared_cache = trained->option_cache;
  }

  std::vector<TracedRow> rows;
  for (const sched::SchedulerInfo& info : sched::Registry::global().entries()) {
    if (info.needs_controller && !trained) continue;
    std::unique_ptr<nvp::Scheduler> policy = info.factory(ctx);
    TimedPolicy timed(*policy);
    const sched::OptionCacheStats before =
        ctx.dp.shared_cache ? ctx.dp.shared_cache->stats()
                            : sched::OptionCacheStats{};
    const auto t0 = Clock::now();
    TracedRow row;
    row.id = info.id;
    row.algo = policy->name();
    row.sim = nvp::simulate(graph, trace, timed,
                            info.sized_bank ? effective : baseline_node,
                            nullptr, faults);
    const double sim_ms = ms_since(t0);
    const std::size_t slot = policy_index(info.id);
    if (auto* optimal = dynamic_cast<sched::OptimalScheduler*>(policy.get())) {
      times.dp_ms += timed.begin_trace_ms();
      if (slot < times.simulate_ms.size())
        times.simulate_ms[slot] += sim_ms - timed.begin_trace_ms();
      add_dp_counts(*optimal, before, times);
    } else if (slot < times.simulate_ms.size()) {
      times.simulate_ms[slot] += sim_ms;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

solar::TimeGrid day_grid(Scale scale) {
  return scale == Scale::kPaper ? solar::default_grid(1)
                                : solar::TimeGrid{1, 12, 10, 30.0};
}

solar::SolarTrace weather_trace(Scale scale, std::uint64_t seed,
                                const std::vector<solar::DayKind>& kinds) {
  util::Rng day_seeds(seed);
  std::vector<solar::SolarTrace> days;
  for (const solar::DayKind kind : kinds)
    days.push_back(trace_generator(scale, day_seeds.next_u64())
                       .generate_day(kind, day_grid(scale)));
  return solar::SolarTrace::concat_days(days);
}

core::PipelineConfig pipeline_config(Scale scale) {
  core::PipelineConfig config;
  if (scale == Scale::kTiny) {
    config.n_caps = 2;
    config.dp.energy_buckets = 6;
    config.dbn.pretrain.epochs = 2;
    config.dbn.finetune.epochs = 10;
  }
  return config;
}

void report_layers(const std::vector<LayerTimes>& passes, Result& out) {
  if (passes.empty()) return;
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const LayerTimes& t : passes) v.push_back(field(t));
    return median(std::move(v));
  };
  out.metric("sizing.size_capacitors_ms",
             med([](const LayerTimes& t) { return t.sizing_ms; }), "ms");
  out.metric("sched.dp_ms", med([](const LayerTimes& t) { return t.dp_ms; }),
             "ms");
  out.metric("nvp.oracle_sim_ms",
             med([](const LayerTimes& t) { return t.oracle_sim_ms; }), "ms");
  out.metric("ann.dbn_train_ms",
             med([](const LayerTimes& t) { return t.dbn_train_ms; }), "ms");
  for (std::size_t i = 0; i < kPolicyIds.size(); ++i)
    out.metric("nvp.simulate_ms." + kPolicyIds[i],
               med([i](const LayerTimes& t) { return t.simulate_ms[i]; }),
               "ms");
  const LayerTimes& last = passes.back();
  const std::size_t lookups = last.cache_hits + last.cache_misses;
  out.metric("sched.dp_evaluations", static_cast<double>(last.dp_evaluations),
             "count");
  out.metric("sched.option_cache_hit_rate",
             lookups == 0 ? 0.0
                          : static_cast<double>(last.cache_hits) /
                                static_cast<double>(lookups),
             "ratio");
  out.metric("ann.train_samples", static_cast<double>(last.train_samples),
             "count");
  out.metric("ann.train_flops", last.train_flops, "flop");
}

}  // namespace perfbench

#include "core/pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "nvp/node_sim.hpp"
#include "sched/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/mathx.hpp"

namespace solsched::core {
namespace {

/// Wraps the DP oracle, capturing (observable input, oracle decision) pairs
/// while the oracle executes on the training trace.
class SampleRecorder final : public nvp::Scheduler {
 public:
  SampleRecorder(sched::OptimalScheduler& oracle, std::size_t n_slots,
                 std::size_t n_caps, std::size_t n_tasks, double alpha_cap)
      : oracle_(&oracle),
        n_slots_(n_slots),
        n_caps_(n_caps),
        n_tasks_(n_tasks),
        alpha_cap_(alpha_cap) {}

  std::string name() const override { return "SampleRecorder"; }

  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    oracle_->begin_trace(graph, config, trace);
  }

  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override {
    const ann::Vector x =
        sched::ProposedScheduler::build_input(ctx, n_slots_);

    const nvp::PeriodPlan plan = oracle_->begin_period(ctx);
    const std::size_t flat = ctx.grid->flat_period(ctx.day, ctx.period);
    const sched::PlannedPeriod& planned = oracle_->plan().at(flat);

    ann::Vector y(n_caps_ + 1 + n_tasks_, 0.0);
    y[planned.cap_index] = 1.0;
    y[n_caps_] = util::clamp(planned.alpha / alpha_cap_, 0.0, 1.0);
    for (std::size_t n = 0; n < n_tasks_; ++n)
      y[n_caps_ + 1 + n] = planned.te.empty() || planned.te[n] ? 1.0 : 0.0;

    samples_.push_back(ann::Sample{x, y});
    return plan;
  }

  nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override {
    return oracle_->decide_slot(ctx);
  }

  std::vector<ann::Sample> take_samples() { return std::move(samples_); }

 private:
  sched::OptimalScheduler* oracle_;
  std::size_t n_slots_;
  std::size_t n_caps_;
  std::size_t n_tasks_;
  double alpha_cap_;
  std::vector<ann::Sample> samples_;
};

}  // namespace

TrainedController train_pipeline(const task::TaskGraph& graph,
                                 const solar::SolarTrace& training_trace,
                                 const nvp::NodeConfig& base,
                                 const PipelineConfig& config) {
  TrainedController out;
  out.node = base;
  out.online = config.online;

  // ---- Step 1: capacitor sizing -----------------------------------------
  if (config.run_sizing) {
    OBS_SPAN("pipeline.sizing");
    sizing::SizingConfig sizing_cfg = config.sizing;
    sizing_cfg.v_low = base.v_low;
    sizing_cfg.v_high = base.v_high;
    sizing_cfg.pmu = base.pmu;
    sizing_cfg.regulators = base.regulators;
    sizing_cfg.leakage = base.leakage;
    out.sizing = sizing::size_capacitors(graph, training_trace, config.n_caps,
                                         sizing_cfg);
    out.node.capacities_f = out.sizing.capacities_f;
    out.node.initial_cap = 0;
  }

  // ---- Step 2: DP oracle on the training trace + sample recording --------
  const solar::TimeGrid& grid = training_trace.grid();
  const double alpha_cap = 3.0;
  sched::OptimalConfig dp_cfg = config.dp;
  if (dp_cfg.use_option_cache && !dp_cfg.shared_cache)
    dp_cfg.shared_cache = std::make_shared<sched::PeriodOptionCache>();
  sched::OptimalScheduler oracle(dp_cfg);
  SampleRecorder recorder(oracle, grid.n_slots, out.node.capacities_f.size(),
                          graph.size(), alpha_cap);
  std::vector<ann::Sample> samples;
  {
    OBS_SPAN("pipeline.oracle");
    const nvp::SimResult oracle_run =
        nvp::simulate(graph, training_trace, recorder, out.node);
    out.oracle_dmr = oracle_run.overall_dmr();
    out.lut = oracle.lut();
    out.option_cache = dp_cfg.shared_cache;
    out.dp_cache_stats = oracle.option_cache_stats();
    samples = recorder.take_samples();
  }
  out.n_samples = samples.size();
  OBS_COUNTER_ADD("pipeline.samples", samples.size());

  // ---- Step 3: DBN training ----------------------------------------------
  // Normalize inputs by physical ranges: solar slots by the trace peak,
  // voltages by V_H, accumulated DMR is already in [0, 1].
  const double solar_max = std::max(1e-6, training_trace.peak_power_w());
  const std::size_t n_in =
      grid.n_slots + out.node.capacities_f.size() + 1;
  ann::Vector mins(n_in, 0.0), maxs(n_in, 1.0);
  for (std::size_t m = 0; m < grid.n_slots; ++m) maxs[m] = solar_max;
  for (std::size_t h = 0; h < out.node.capacities_f.size(); ++h)
    maxs[grid.n_slots + h] = base.v_high;
  ann::Normalizer norm;
  norm.set_ranges(std::move(mins), std::move(maxs));

  for (auto& s : samples) s.x = norm.transform(s.x);

  const std::size_t n_out = out.node.capacities_f.size() + 1 + graph.size();
  auto dbn = std::make_shared<ann::Dbn>(n_in, n_out, config.dbn);
  ann::DbnTrainReport report;
  {
    OBS_SPAN("pipeline.dbn_train");
    report = dbn->train(samples);
  }
  out.train_mse = report.finetune_loss;
  OBS_GAUGE_SET("pipeline.train_mse", out.train_mse);
  OBS_COUNTER_ADD("pipeline.runs", 1);

  out.model.dbn = std::move(dbn);
  out.model.input_norm = std::move(norm);
  out.model.capacities_f = out.node.capacities_f;
  out.model.n_slots = grid.n_slots;
  out.model.n_tasks = graph.size();
  out.model.alpha_cap = alpha_cap;
  return out;
}

std::unique_ptr<sched::ProposedScheduler> make_proposed(
    const TrainedController& controller) {
  sched::SchedulerContext ctx;
  ctx.model = &controller.model;
  ctx.online = controller.online;
  std::unique_ptr<nvp::Scheduler> policy = sched::make_scheduler("proposed", ctx);
  // The registry hands back the base interface; this helper's consumers
  // (the serve engine, ablation tools) need the Proposed-specific
  // accessors, so narrow the type here — the one place that knows the
  // "proposed" entry builds a ProposedScheduler.
  auto* proposed = dynamic_cast<sched::ProposedScheduler*>(policy.get());
  if (!proposed)
    throw std::logic_error(
        "make_proposed: registry entry \"proposed\" built an unexpected type");
  policy.release();
  return std::unique_ptr<sched::ProposedScheduler>(proposed);
}

}  // namespace solsched::core

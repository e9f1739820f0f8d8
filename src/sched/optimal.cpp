#include "sched/optimal.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/sched_util.hpp"
#include "util/byte_format.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::max() / 4;

/// Deterministic per-period forecast perturbation factor.
double forecast_factor(std::uint64_t seed, std::size_t window_start,
                       std::size_t period, double sigma) {
  if (sigma <= 0.0) return 1.0;
  util::Rng rng(seed ^ (window_start * 0x9E3779B9ull) ^ (period * 0x85EBCA6Bull));
  return std::max(0.05, 1.0 + sigma * rng.normal());
}

std::uint64_t fold(std::uint64_t h, double x) {
  return util::fnv1a_u64(h, std::bit_cast<std::uint64_t>(x));
}

std::uint64_t fold(std::uint64_t h, std::size_t n) {
  return util::fnv1a_u64(h, static_cast<std::uint64_t>(n));
}

/// "knob (plan's value vs begin_trace's value)".
template <typename T>
std::string differs(const char* knob, T plan, T now) {
  const auto text = [](T v) {
    if constexpr (std::is_floating_point_v<T>) return util::format_shortest(v);
    else return std::to_string(v);
  };
  return std::string(knob) + " (" + text(plan) + " vs " + text(now) + ")";
}

}  // namespace

DpInputs DpInputs::of(const task::TaskGraph& graph,
                      const nvp::NodeConfig& config,
                      const solar::SolarTrace& trace,
                      const OptimalConfig& dp) {
  DpInputs in;
  const solar::TimeGrid& grid = trace.grid();
  std::uint64_t h = fold(util::kFnv1aOffsetBasis, grid.n_days);
  h = fold(fold(fold(h, grid.n_periods), grid.n_slots), grid.dt_s);
  for (double w : trace.raw()) h = fold(h, w);
  in.trace = h;

  h = fold(util::kFnv1aOffsetBasis, config.capacities_f.size());
  for (double c : config.capacities_f) h = fold(h, c);
  h = fold(fold(fold(h, config.v_low), config.v_high), config.pmu.direct_eta);
  h = fold(fold(h, config.leakage.k_cap()), config.leakage.k_volt());
  // The regulator curves are fitted polynomials; sampling them across the
  // operating window pins their behaviour, as node_config_digest does.
  for (double v = 0.5; v <= 5.0; v += 0.5)
    h = fold(fold(h, config.regulators.input.eta(v)),
             config.regulators.output.eta(v));
  in.bank = fold(fold(h, config.initial_cap), config.initial_usable_j);

  h = fold(util::kFnv1aOffsetBasis, graph.size());
  for (const task::Task& t : graph.tasks())
    h = fold(fold(fold(fold(h, t.deadline_s), t.exec_s), t.power_w), t.nvp);
  h = fold(h, graph.edges().size());
  for (const task::Edge& e : graph.edges()) h = fold(fold(h, e.from), e.to);
  in.graph = h;

  in.energy_buckets = dp.energy_buckets;
  in.horizon_periods = dp.horizon_periods;
  in.forecast_noise = dp.forecast_noise;
  in.noise_seed = dp.noise_seed;
  in.allow_cap_switch = dp.allow_cap_switch;
  in.v0_quant_steps = dp.v0_quant_steps;
  return in;
}

std::string DpInputs::first_difference(const DpInputs& other) const {
  if (trace != other.trace) return "trace (solar samples or time grid)";
  if (bank != other.bank)
    return "capacitor bank (node physics or initial state)";
  if (graph != other.graph) return "task graph";
  if (energy_buckets != other.energy_buckets)
    return differs("energy_buckets", energy_buckets, other.energy_buckets);
  if (horizon_periods != other.horizon_periods)
    return differs("horizon_periods", horizon_periods, other.horizon_periods);
  if (forecast_noise != other.forecast_noise)
    return differs("forecast_noise", forecast_noise, other.forecast_noise);
  if (noise_seed != other.noise_seed)
    return differs("noise_seed", noise_seed, other.noise_seed);
  if (allow_cap_switch != other.allow_cap_switch)
    return differs<int>("allow_cap_switch", allow_cap_switch,
                        other.allow_cap_switch);
  if (v0_quant_steps != other.v0_quant_steps)
    return differs("v0_quant_steps", v0_quant_steps, other.v0_quant_steps);
  return {};
}

std::shared_ptr<const DpPlan> plan_dp(const task::TaskGraph& graph,
                                      const nvp::NodeConfig& config,
                                      const solar::SolarTrace& trace,
                                      const OptimalConfig& dp, Lut* lut) {
  OBS_SPAN("dp.run");
  if (dp.energy_buckets == 0)
    throw std::invalid_argument("plan_dp: need >= 1 energy bucket");
  if (graph.size() > 64)
    throw std::invalid_argument(
        "OptimalScheduler: task graphs above 64 tasks are not supported "
        "(the DP packs the te decision into a 64-bit mask); got " +
        std::to_string(graph.size()) + " tasks");

  const solar::TimeGrid& grid = trace.grid();
  const std::size_t n_periods = grid.total_periods();
  const std::size_t n_caps = config.capacities_f.size();
  const std::size_t n_buckets = dp.energy_buckets;
  const double dt = grid.dt_s;

  std::shared_ptr<PeriodOptionCache> cache;
  if (dp.use_option_cache)
    cache = dp.shared_cache ? dp.shared_cache
                            : std::make_shared<PeriodOptionCache>();

  PeriodOptimizer optimizer(graph, config.pmu, config.regulators,
                            config.leakage, config.v_low, config.v_high, dt);

  // One funnel for every option-set derivation: quantize the start voltage
  // (identically with or without the cache, so cached and uncached runs
  // stay bit-identical), then memoize on the exact resulting key.
  const auto options_for = [&](const std::vector<double>& solar_w,
                               double capacity_f, double v0) {
    const double vq = PeriodOptionCache::quantize_v0(
        v0, config.v_low, config.v_high, dp.v0_quant_steps);
    if (!cache) {
      OBS_SPAN("dp.pareto_options");
      return std::make_shared<const std::vector<PeriodOption>>(
          optimizer.pareto_options(solar_w, capacity_f, vq));
    }
    return cache->lookup_or_compute(solar_w, capacity_f, vq, [&] {
      OBS_SPAN("dp.pareto_options");
      return optimizer.pareto_options(solar_w, capacity_f, vq);
    });
  };
  const auto quantized_v0 = [&](double v0) {
    return PeriodOptionCache::quantize_v0(v0, config.v_low, config.v_high,
                                          dp.v0_quant_steps);
  };

  // Per-capacitor bucket geometry over usable energy. Buckets only bound the
  // number of labels kept per layer; each label carries its *continuous*
  // stored energy, so per-period gains smaller than a bucket still
  // accumulate across periods (flooring energy to bucket edges would make
  // overnight banking impossible). Square-root spacing concentrates label
  // resolution at low stored energy where decisions are most sensitive.
  std::vector<double> max_usable(n_caps);
  for (std::size_t h = 0; h < n_caps; ++h) {
    const double c = config.capacities_f[h];
    max_usable[h] =
        0.5 * c * (config.v_high * config.v_high - config.v_low * config.v_low);
  }
  auto bucket_of = [&](std::size_t h, double usable) -> std::size_t {
    const double frac = std::sqrt(std::max(0.0, usable) / max_usable[h]);
    const auto b = static_cast<long long>(frac * static_cast<double>(n_buckets));
    return static_cast<std::size_t>(
        std::clamp<long long>(b, 0, static_cast<long long>(n_buckets) - 1));
  };
  auto voltage_of = [&](std::size_t h, double usable) -> double {
    const double c = config.capacities_f[h];
    const double floor_j = 0.5 * c * config.v_low * config.v_low;
    return std::sqrt(2.0 * (std::max(0.0, usable) + floor_j) / c);
  };

  auto plan = std::make_shared<DpPlan>();
  plan->periods.assign(n_periods, {});
  plan->inputs = DpInputs::of(graph, config, trace, dp);

  const std::size_t horizon =
      dp.horizon_periods == 0 ? n_periods : dp.horizon_periods;

  // One Eq. 13 LUT row per backtracked path state: its option set and key.
  struct LutRow {
    std::shared_ptr<const std::vector<PeriodOption>> options;
    double solar_energy_j = 0.0;
    double capacity_f = 0.0;
    double v0 = 0.0;
  };
  std::vector<LutRow> lut_rows;
  std::size_t lut_entries = 0;

  // Committed state carried across planning windows.
  std::size_t state_h = config.initial_cap;
  double state_usable = config.initial_usable_j;

  // One DP label per (layer, capacitor, bucket): dominance keeps the lowest
  // cost, ties broken toward more stored energy. Packed to 40 bytes: the
  // predecessor is one flat (h, b) index of the layer before.
  struct Cell {
    double cost = kInf;
    double usable = 0.0;
    std::uint64_t te_mask = 0;    ///< Decision that produced this label.
    std::int32_t prev = -1;       ///< Predecessor's h * n_buckets + b.
    float alpha = 0.0f;
    float consumed = 0.0f;
    bool from_switch = false;     ///< Day-boundary capacitor change marker.
    std::uint8_t misses = 0;
  };
  static_assert(sizeof(Cell) == 40);
  auto relax = [](Cell& to, const Cell& candidate) {
    if (candidate.cost < to.cost - 1e-12 ||
        (std::fabs(candidate.cost - to.cost) <= 1e-12 &&
         candidate.usable > to.usable)) {
      to = candidate;
      return true;
    }
    return false;
  };

  for (std::size_t w0 = 0; w0 < n_periods; w0 += horizon) {
    const std::size_t w1 = std::min(n_periods, w0 + horizon);
    const std::size_t len = w1 - w0;

    // Forecast-noisy solar per period of the window (Fig. 10a knob).
    std::vector<std::vector<double>> window_solar(len);
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t p = w0 + i;
      const double lookahead_days =
          static_cast<double>(i) / static_cast<double>(grid.n_periods);
      const double factor = forecast_factor(
          dp.noise_seed, w0, p, dp.forecast_noise * lookahead_days);
      window_solar[i] =
          trace.period_powers(p / grid.n_periods, p % grid.n_periods);
      for (double& s : window_solar[i]) s *= factor;
    }

    std::vector<std::vector<Cell>> layers(
        len + 1, std::vector<Cell>(n_caps * n_buckets));
    auto at = [&](std::vector<Cell>& layer, std::size_t h,
                  std::size_t b) -> Cell& { return layer[h * n_buckets + b]; };

    {
      Cell& start = at(layers[0], state_h, bucket_of(state_h, state_usable));
      start.cost = 0.0;
      start.usable = state_usable;
    }

    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t p = w0 + i;
      // Day-boundary capacitor re-selection: the abandoned capacitor's
      // energy is written off (the paper: inter-day carry-over is rare
      // because storage drains overnight anyway).
      if (dp.allow_cap_switch && p % grid.n_periods == 0) {
        for (std::size_t h = 0; h < n_caps; ++h)
          for (std::size_t b = 0; b < n_buckets; ++b) {
            const Cell from = at(layers[i], h, b);
            if (from.cost >= kInf) continue;
            for (std::size_t h2 = 0; h2 < n_caps; ++h2) {
              if (h2 == h) continue;
              Cell candidate;
              candidate.cost = from.cost;
              candidate.usable = 0.0;
              candidate.prev = static_cast<std::int32_t>(h * n_buckets + b);
              candidate.from_switch = true;
              relax(at(layers[i], h2, 0), candidate);
            }
          }
      }

      // Two-phase row expansion. Phase 1 derives every live label's option
      // set on the thread pool — pareto_options is pure, and the option
      // cache computes outside its lock, so concurrent derivation produces
      // the same vectors a serial sweep would. Phase 2 relaxes serially in
      // ascending (h, b) order, so label ties resolve exactly as before:
      // the DP outcome is bit-identical at every thread count.
      std::vector<std::size_t> live;
      live.reserve(n_caps * n_buckets);
      for (std::size_t h = 0; h < n_caps; ++h)
        for (std::size_t b = 0; b < n_buckets; ++b)
          if (at(layers[i], h, b).cost < kInf)
            live.push_back(h * n_buckets + b);

      std::vector<std::shared_ptr<const std::vector<PeriodOption>>>
          row_options(live.size());
      util::parallel_for(live.size(), [&](std::size_t k) {
        const std::size_t h = live[k] / n_buckets;
        const Cell& from = layers[i][live[k]];
        row_options[k] = options_for(window_solar[i], config.capacities_f[h],
                                     voltage_of(h, from.usable));
      });

      for (std::size_t k = 0; k < live.size(); ++k) {
        const std::size_t h = live[k] / n_buckets;
        const std::size_t b = live[k] % n_buckets;
        const Cell& from = at(layers[i], h, b);
        ++plan->dp_evaluations;
        const auto& options = row_options[k];
        for (const PeriodOption& opt : *options) {
          Cell candidate;
          candidate.cost = from.cost + static_cast<double>(opt.misses);
          candidate.usable = opt.final_usable_j;
          candidate.prev = static_cast<std::int32_t>(live[k]);
          candidate.te_mask = opt.te;
          candidate.alpha = static_cast<float>(opt.alpha);
          candidate.consumed = static_cast<float>(opt.consumed_cap_j);
          candidate.misses = static_cast<std::uint8_t>(opt.misses);
          relax(at(layers[i + 1], h, bucket_of(h, opt.final_usable_j)),
                candidate);
        }
      }
    }

    // Best terminal label; ties toward more stored energy.
    std::size_t best_h = 0, best_b = 0;
    double best_cost = kInf, best_usable = -1.0;
    for (std::size_t h = 0; h < n_caps; ++h)
      for (std::size_t b = 0; b < n_buckets; ++b) {
        const Cell& cell = at(layers[len], h, b);
        if (cell.cost < best_cost - 1e-12 ||
            (std::fabs(cell.cost - best_cost) <= 1e-12 &&
             cell.usable > best_usable)) {
          best_cost = cell.cost;
          best_usable = cell.usable;
          best_h = h;
          best_b = b;
        }
      }
    if (best_cost >= kInf)
      throw std::logic_error("OptimalScheduler: DP found no feasible path");

    // Backtrack: recover the plan; with a LUT, re-derive each path state's
    // full option set once more for it (the paper's "optimal samples").
    std::size_t h = best_h, b = best_b;
    for (std::size_t i = len; i-- > 0;) {
      const Cell cell = at(layers[i + 1], h, b);
      const auto ph = static_cast<std::size_t>(cell.prev) / n_buckets;
      const auto pb = static_cast<std::size_t>(cell.prev) % n_buckets;
      const Cell& prev = at(layers[i], ph, pb);

      PlannedPeriod planned;
      planned.cap_index = ph;
      planned.te.assign(graph.size(), false);
      for (std::size_t n = 0; n < graph.size(); ++n)
        planned.te[n] = (cell.te_mask >> n) & 1u;
      planned.alpha = cell.alpha;
      planned.planned_misses = cell.misses;
      planned.planned_consumed_j = cell.consumed;
      // The quantized voltage is what the options were evaluated at; record
      // it so plan and LUT describe the evaluation that actually ran.
      planned.planned_v0 = quantized_v0(voltage_of(ph, prev.usable));
      plan->periods[w0 + i] = std::move(planned);
      plan->planned_misses += cell.misses;

      if (lut) {
        double solar_energy = 0.0;
        for (double sw : window_solar[i]) solar_energy += sw * dt;
        lut_rows.push_back({options_for(window_solar[i],
                                        config.capacities_f[ph],
                                        voltage_of(ph, prev.usable)),
                            solar_energy, config.capacities_f[ph],
                            plan->periods[w0 + i].planned_v0});
        lut_entries += lut_rows.back().options->size();
      }

      h = ph;
      b = pb;
      // Unwind any day-boundary switch relaxation.
      while (at(layers[i], h, b).from_switch) {
        const auto prev_flat =
            static_cast<std::size_t>(at(layers[i], h, b).prev);
        h = prev_flat / n_buckets;
        b = prev_flat % n_buckets;
      }
    }

    state_h = best_h;
    state_usable = best_usable;
  }

  // The LUT is filled once the path's option count is known, so its
  // table is allocated once and exactly, in backtrack order.
  if (lut) {
    lut->reserve(lut->size() + lut_entries);
    const double n_tasks =
        static_cast<double>(std::max<std::size_t>(1, graph.size()));
    for (const LutRow& row : lut_rows)
      for (const PeriodOption& sibling : *row.options)
        lut->insert({{static_cast<double>(sibling.misses) / n_tasks,
                      row.solar_energy_j, row.capacity_f, row.v0},
                     sibling.consumed_cap_j,
                     sibling.alpha,
                     sibling.te});
  }

  OBS_COUNTER_ADD("sched.dp.runs", 1);
  OBS_COUNTER_ADD("sched.dp.periods_planned", n_periods);
  OBS_COUNTER_ADD("sched.dp.evaluations", plan->dp_evaluations);
  OBS_COUNTER_ADD("sched.dp.planned_misses", plan->planned_misses);
  if (lut) OBS_COUNTER_ADD("sched.dp.lut_entries", lut->size());
  return plan;
}

OptimalScheduler::OptimalScheduler(OptimalConfig config)
    : config_(std::move(config)), plan_(std::make_shared<const DpPlan>()) {
  if (config_.energy_buckets == 0)
    throw std::invalid_argument("OptimalScheduler: need >= 1 energy bucket");
  if (config_.use_option_cache && !config_.plan)
    cache_ = config_.shared_cache ? config_.shared_cache
                                  : std::make_shared<PeriodOptionCache>();
}

void OptimalScheduler::begin_trace(const task::TaskGraph& graph,
                                   const nvp::NodeConfig& config,
                                   const solar::SolarTrace& trace) {
  trace_ = &trace;
  direct_eta_ = config.pmu.direct_eta;
  if (!config_.plan) {
    OptimalConfig dp = config_;
    dp.shared_cache = cache_;
    plan_ = plan_dp(graph, config, trace, dp, &lut_);
    return;
  }
  const std::string mismatch = config_.plan->inputs.first_difference(
      DpInputs::of(graph, config, trace, config_));
  if (!mismatch.empty())
    throw std::invalid_argument(
        "OptimalScheduler: the handed DP plan was made for a different " +
        mismatch);
  plan_ = config_.plan;
}

nvp::PeriodPlan OptimalScheduler::begin_period(const nvp::PeriodContext& ctx) {
  const std::size_t flat = ctx.grid->flat_period(ctx.day, ctx.period);
  const PlannedPeriod& planned = plan_->periods.at(flat);
  nvp::PeriodPlan plan;
  plan.select_cap = planned.cap_index;
  // The planned te drives prioritization inside decide_slot; the engine
  // sees everything enabled so off-plan tasks may still scavenge solar
  // surplus the bucket-quantized plan did not anticipate.
  te_mask_ = task::te_mask(planned.te);
  off_plan_mask_ = planned.te.empty() ? 0 : ~te_mask_;
  return plan;
}

nvp::SlotAction OptimalScheduler::decide_slot(const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;

  // Oracle suffix energy within the remainder of this period, read in
  // place from the trace.
  const std::size_t n_slots = ctx.grid->n_slots;
  const double* solar =
      trace_->raw().data() + ctx.grid->flat_slot(ctx.day, ctx.period, 0);

  // Oracle starvation forcing, as in the period optimizer.
  std::uint64_t must_run = 0;
  for (std::uint64_t rest = state.live_ready_mask(ctx.now_in_period_s) &
                            te_mask_;
       rest != 0; rest &= rest - 1) {
    const auto id = static_cast<std::size_t>(std::countr_zero(rest));
    const auto& t = graph.task(id);
    const auto dl_slot = std::min(
        n_slots,
        static_cast<std::size_t>(std::max(0.0, t.deadline_s / dt + 0.5)));
    double future_j = 0.0;
    for (std::size_t m = ctx.slot; m < dl_slot; ++m) future_j += solar[m] * dt;
    if (future_j * direct_eta_ < state.remaining_s(id) * t.power_w)
      must_run |= std::uint64_t{1} << id;
  }

  const double direct_budget_w = ctx.solar_w * direct_eta_;
  nvp::SlotAction action =
      load_match_decision(graph, state, ctx.now_in_period_s, dt, te_mask_,
                          direct_budget_w, must_run, ctx.supplyable_w());

  // Off-plan tasks may scavenge free solar on NVPs the plan left idle. This
  // can only lower the realized DMR relative to the plan.
  scavenge_free_solar(ctx, off_plan_mask_, direct_budget_w, action);
  return action;
}

}  // namespace solsched::sched

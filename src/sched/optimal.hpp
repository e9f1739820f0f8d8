// Long-term optimal scheduler (the paper's static upper bound, Sec. 4.2).
//
// Solves the simplified formulation (Eq. 12-14) by dynamic programming:
// state = (capacitor choice, discretized usable energy), one transition per
// period drawn from the per-period Pareto frontier (miss count vs. consumed
// energy), capacitor switches allowed at day boundaries (energy left in the
// abandoned capacitor is written off — the paper notes inter-day migration
// is rare because storage is drained overnight anyway).
//
// The same machinery doubles as the *training oracle*: its per-period
// decisions (capacitor, te, α) become the DBN's labelled samples, and every
// evaluated option is recorded into the Eq. 13 LUT.
//
// A finite `horizon_periods` plus `forecast_noise` turns the oracle into a
// bounded-lookahead planner with degrading long-range forecasts — the knob
// behind the paper's Fig. 10(a) prediction-length study.
//
// The DP's result is a value (DpPlan, from plan_dp) apart from the
// scheduler's execution state. The plan reads the clean trace and never the
// fault injector, so callers that simulate one trace many times (the
// intensities of a campaign's (workload, seed), a resilience sweep) plan it
// once and hand the plan to each OptimalScheduler through OptimalConfig.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nvp/scheduler.hpp"
#include "sched/lut.hpp"
#include "sched/period_option_cache.hpp"
#include "sched/period_optimizer.hpp"

namespace solsched::sched {

struct DpPlan;

/// DP configuration.
struct OptimalConfig {
  std::size_t energy_buckets = 14;  ///< Usable-energy discretization per cap.
  /// Planning window in periods; 0 = the whole trace at once (pure oracle).
  std::size_t horizon_periods = 0;
  /// Relative forecast error growth per day of lookahead (0 = oracle).
  /// Within a window, the solar the DP sees at lookahead L days is scaled by
  /// a deterministic pseudo-random factor with stddev forecast_noise * L.
  double forecast_noise = 0.0;
  std::uint64_t noise_seed = 99;
  bool allow_cap_switch = true;  ///< Day-boundary capacitor re-selection.

  /// Memoize pareto_options across DP cells and the backtrack. The cache is
  /// exact: with identical remaining knobs, cached and uncached runs produce
  /// bit-identical plans, LUTs and miss counts.
  bool use_option_cache = true;
  /// Snap each label's start voltage onto a grid of this many points on the
  /// DP's sqrt-usable-energy axis before evaluating its period options
  /// (0 = exact v0, the pure-oracle default). Applied in cached AND
  /// uncached runs alike, so it never breaks cache/no-cache equivalence; it
  /// trades sub-grid start-voltage detail for cross-cell cache hits. The
  /// offline pipeline turns this on (see PipelineConfig), where the small
  /// plan perturbation is within training noise; leave at 0 where exact
  /// oracle optimality matters.
  std::size_t v0_quant_steps = 0;
  /// Optional externally owned cache, e.g. shared between the training
  /// oracle and a comparison run on the same trace. Null = private cache.
  std::shared_ptr<PeriodOptionCache> shared_cache;
  /// Optional plan from plan_dp for the exact inputs begin_trace will see;
  /// the scheduler then runs no DP and has an empty lut(). A plan whose
  /// inputs differ throws std::invalid_argument naming the input. Null =
  /// plan in begin_trace.
  std::shared_ptr<const DpPlan> plan;
};

/// Per-period decision recovered from the DP.
struct PlannedPeriod {
  std::size_t cap_index = 0;
  std::vector<bool> te;
  double alpha = 0.0;
  std::size_t planned_misses = 0;
  double planned_consumed_j = 0.0;
  double planned_v0 = 0.0;  ///< Bucket-center voltage the plan assumed.
};

/// What a plan was computed from: digests of the trace, the node's bank
/// and the task graph, plus the OptimalConfig knobs that shape the plan
/// (verbatim, so a mismatch names the knob). The option cache and a handed
/// plan are left out: neither changes the result.
struct DpInputs {
  std::uint64_t trace = 0;  ///< Solar samples and time grid.
  std::uint64_t bank = 0;   ///< Capacitors, V_L/V_H, PMU, regulators,
                            ///< leakage, initial capacitor and energy.
  std::uint64_t graph = 0;  ///< Tasks and dependency edges.
  std::size_t energy_buckets = 0;
  std::size_t horizon_periods = 0;
  double forecast_noise = 0.0;
  std::uint64_t noise_seed = 0;
  bool allow_cap_switch = true;
  std::size_t v0_quant_steps = 0;

  static DpInputs of(const task::TaskGraph& graph,
                     const nvp::NodeConfig& config,
                     const solar::SolarTrace& trace,
                     const OptimalConfig& dp);

  /// The first input in which `other` differs from this, as a phrase for an
  /// error message ("trace ...", "energy_buckets (<this> vs <other>)", ...);
  /// empty when they are equal.
  std::string first_difference(const DpInputs& other) const;
};

/// The DP's result, immutable once built: one decision per flat period, the
/// misses it expects, the work it took and the inputs it was computed from.
struct DpPlan {
  std::vector<PlannedPeriod> periods;
  std::size_t planned_misses = 0;  ///< Lower-bound estimate over the trace.
  std::size_t dp_evaluations = 0;  ///< Per-period Pareto evaluations.
  DpInputs inputs;
};

/// Runs the DP (Eq. 12-14) on `trace`. Deterministic at every thread count.
/// The option cache follows `dp` (shared_cache, else a private one, unless
/// use_option_cache is off). When `lut` is non-null the backtrack appends
/// every option of each plan state to it as Eq. 13 entries; a plan that is
/// only replayed needs none, so the backtrack then re-derives nothing.
std::shared_ptr<const DpPlan> plan_dp(const task::TaskGraph& graph,
                                      const nvp::NodeConfig& config,
                                      const solar::SolarTrace& trace,
                                      const OptimalConfig& dp,
                                      Lut* lut = nullptr);

/// Offline optimal policy (requires the full trace in begin_trace).
class OptimalScheduler final : public nvp::Scheduler {
 public:
  explicit OptimalScheduler(OptimalConfig config = {});

  std::string name() const override { return "Optimal"; }

  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override;
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override;

  /// The DP's plan, one entry per flat period (valid after begin_trace).
  const std::vector<PlannedPeriod>& plan() const noexcept {
    return plan_->periods;
  }

  /// Every option on the plan's path, as Eq. 13 LUT entries (empty when the
  /// plan was handed in through OptimalConfig::plan).
  const Lut& lut() const noexcept { return lut_; }

  /// Moves lut() out, leaving it empty: the pipeline keeps the table
  /// without a second copy of it.
  Lut take_lut() noexcept { return std::move(lut_); }

  /// Total misses the DP expects over the trace (lower bound estimate).
  std::size_t planned_total_misses() const noexcept {
    return plan_->planned_misses;
  }

  /// Number of per-period Pareto evaluations the DP performed — the
  /// planning-complexity measure reported by the Fig. 10(a) bench.
  std::size_t dp_evaluations() const noexcept {
    return plan_->dp_evaluations;
  }

  /// Hit/miss/eviction counters of the option cache (all-zero when
  /// use_option_cache is false or the plan was handed in). Valid after
  /// begin_trace.
  OptionCacheStats option_cache_stats() const {
    return cache_ ? cache_->stats() : OptionCacheStats{};
  }

 private:
  OptimalConfig config_;
  /// Null when caching is off or the plan was handed in.
  std::shared_ptr<PeriodOptionCache> cache_;
  std::shared_ptr<const DpPlan> plan_;  ///< Never null.
  Lut lut_;
  // Execution-time state (greedy-lazy placement over the planned te).
  const solar::SolarTrace* trace_ = nullptr;
  double direct_eta_ = 0.92;
  std::uint64_t te_mask_ = task::kEveryTask;  ///< Period's planned te.
  std::uint64_t off_plan_mask_ = 0;            ///< Tasks outside it.
};

}  // namespace solsched::sched

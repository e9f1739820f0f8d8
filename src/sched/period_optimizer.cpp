#include "sched/period_optimizer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sched/sched_util.hpp"
#include "storage/cap_bank.hpp"

namespace solsched::sched {

namespace {

constexpr std::uint64_t bit(std::size_t id) { return std::uint64_t{1} << id; }

}  // namespace

PeriodOptimizer::PeriodOptimizer(const task::TaskGraph& graph,
                                 storage::PmuConfig pmu,
                                 storage::RegulatorModel regulators,
                                 storage::LeakageModel leakage, double v_low,
                                 double v_high, double dt_s)
    : graph_(&graph),
      pmu_(pmu),
      regulators_(std::move(regulators)),
      leakage_(leakage),
      v_low_(v_low),
      v_high_(v_high),
      dt_s_(dt_s) {
  if (!graph.mask_capable())
    throw std::invalid_argument(
        "PeriodOptimizer: task graphs above 64 tasks are not supported");
  const std::size_t n = graph.size();
  for (std::size_t id = 0; id < n; ++id) {
    const task::Task& t = graph.task(id);
    power_w_.push_back(t.power_w);
    deadline_s_.push_back(t.deadline_s);
    pred_mask_.push_back(graph.pred_mask(id));
  }
  for (std::size_t k = 0; k < graph.nvp_count(); ++k)
    if (graph.nvp_mask(k) != 0) nvp_masks_.push_back(graph.nvp_mask(k));
  for (const std::vector<bool>& te : closed_subsets(graph)) {
    std::uint64_t mask = 0;
    double demand_j = 0.0;  // alpha_index's sum, in the same order.
    for (std::size_t id = 0; id < n; ++id)
      if (te[id]) {
        mask |= bit(id);
        demand_j += graph.task(id).energy_j();
      }
    closed_masks_.push_back(mask);
    closed_demand_j_.push_back(demand_j);
  }
}

/// The period kernel: one period over one capacitor for a set of subsets,
/// walked as a slot-by-slot prefix tree.
///
/// Task state is remaining times plus done/missed bit masks; deadline
/// marking at slot boundary m is one OR with the precomputed mask of tasks
/// whose deadline has passed by then. A tree node at depth m holds the state
/// at the start of slot m (deadlines already marked) for a run of subsets.
/// The slot's decision reads the subset only through te ∩ live, so the run
/// is grouped by that key and each group's slot is simulated once; the
/// groups then continue independently. Each NVP's candidate list reduces to
/// its head, the argmin of (deadline, remaining, id) over te ∩ live — all
/// the load matcher ever reads. The capacitor is one bank whose voltage is
/// restored from the node before each simulated slot, so every subset sees
/// exactly the arithmetic of a replay of its own.
class PeriodOptimizer::Kernel {
 public:
  /// One subset's end-of-period state.
  struct Outcome {
    std::uint64_t done = 0;
    std::size_t misses = 0;
    double final_usable_j = 0.0;
    double final_voltage_v = 0.0;
    double migrated_in_j = 0.0;
    double cap_supplied_j = 0.0;
  };

  Kernel(const PeriodOptimizer& opt, const std::vector<double>& solar_w,
         double capacity_f, double v0)
      : opt_(opt),
        solar_w_(solar_w),
        n_tasks_(opt.power_w_.size()),
        n_slots_(solar_w.size()),
        suffix_j_(n_slots_ + 1, 0.0),
        expired_(n_slots_ + 1, 0),
        bank_({capacity_f}, opt.regulators_, opt.leakage_, opt.v_low_,
              opt.v_high_),
        pmu_(opt.pmu_),
        nodes_(n_slots_ + 1),
        remaining_((n_slots_ + 1) * n_tasks_) {
    const double dt = opt.dt_s_;
    // Oracle suffix sums: solar energy from slot m to the end of the period.
    for (std::size_t m = n_slots_; m-- > 0;)
      suffix_j_[m] = suffix_j_[m + 1] + solar_w[m] * dt;
    for (std::size_t id = 0; id < n_tasks_; ++id) {
      dl_slot_.push_back(std::min(
          n_slots_, static_cast<std::size_t>(
                        std::max(0.0, opt.deadline_s_[id] / dt + 0.5))));
      for (std::size_t m = 0; m <= n_slots_; ++m)
        if (opt.deadline_s_[id] <= static_cast<double>(m) * dt)
          expired_[m] |= bit(id);
    }

    bank_.selected().set_voltage(v0);
    initial_usable_j_ = bank_.selected().usable_energy_j();
    Node& root = nodes_[0];
    root.voltage_v = bank_.selected().voltage_v();
    for (std::size_t id = 0; id < n_tasks_; ++id) {
      remaining_[id] = opt.graph_->task(id).exec_s;
      if (remaining_[id] <= 1e-9) root.done |= bit(id);
    }
    root.missed = expired_[0] & ~root.done;
  }

  /// Runs the period for every subset in `te`; out[i] receives subset i's
  /// outcome. `slots`, when given, receives each slot's chosen tasks (only
  /// meaningful for a single subset).
  void run(std::span<const std::uint64_t> te, std::span<Outcome> out,
           std::vector<std::vector<std::size_t>>* slots) {
    te_ = te.data();
    out_ = out.data();
    slots_ = slots;
    if (slots_) slots_->assign(n_slots_, {});
    order_.resize(te.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    walk(0, 0, order_.size());
  }

  double initial_usable_j() const noexcept { return initial_usable_j_; }

  /// Slot simulations actually run (the tree's edge count).
  std::size_t slot_steps() const noexcept { return slot_steps_; }

 private:
  struct Node {
    std::uint64_t done = 0;
    std::uint64_t missed = 0;
    double voltage_v = 0.0;
    double migrated_in_j = 0.0;
    double cap_supplied_j = 0.0;
  };

  /// Ready, unfinished, unmissed tasks at node m (a passed deadline is
  /// already a miss, so the deadline test is implied).
  std::uint64_t live(std::size_t m) const {
    const Node& node = nodes_[m];
    std::uint64_t cand = ~(node.done | node.missed);
    if (n_tasks_ < 64) cand &= bit(n_tasks_) - 1;
    std::uint64_t out = 0;
    for (; cand != 0; cand &= cand - 1) {
      const auto id = static_cast<std::size_t>(std::countr_zero(cand));
      if ((node.done & opt_.pred_mask_[id]) == opt_.pred_mask_[id])
        out |= bit(id);
    }
    return out;
  }

  /// Continues subsets order_[lo, hi), which share node m, to the leaves.
  void walk(std::size_t m, std::size_t lo, std::size_t hi) {
    for (; m < n_slots_; ++m) {
      const std::uint64_t lv = live(m);
      const auto key = [&](std::size_t i) { return te_[i] & lv; };
      const std::uint64_t first = key(order_[lo]);
      std::size_t split = lo + 1;
      while (split < hi && key(order_[split]) == first) ++split;
      if (split == hi) {  // One group: the common case, no branching.
        step(m, first);
        continue;
      }
      std::sort(order_.begin() + static_cast<std::ptrdiff_t>(lo),
                order_.begin() + static_cast<std::ptrdiff_t>(hi),
                [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
      for (std::size_t a = lo; a < hi;) {
        const std::uint64_t enabled = key(order_[a]);
        std::size_t b = a + 1;
        while (b < hi && key(order_[b]) == enabled) ++b;
        step(m, enabled);
        walk(m + 1, a, b);
        a = b;
      }
      return;
    }
    const Node& node = nodes_[n_slots_];
    bank_.selected().set_voltage(node.voltage_v);
    const Outcome outcome{node.done,
                          static_cast<std::size_t>(std::popcount(node.missed)),
                          bank_.selected().usable_energy_j(),
                          node.voltage_v,
                          node.migrated_in_j,
                          node.cap_supplied_j};
    for (std::size_t i = lo; i < hi; ++i) out_[order_[i]] = outcome;
  }

  /// Simulates slot m from node m with `enabled` = te ∩ live into node m+1.
  void step(std::size_t m, std::uint64_t enabled) {
    const double dt = opt_.dt_s_;
    const Node& at = nodes_[m];
    const double* rem = &remaining_[m * n_tasks_];
    const double now = static_cast<double>(m) * dt;
    bank_.selected().set_voltage(at.voltage_v);

    // Each NVP's head, forced when its slack is under one slot or when the
    // remaining oracle harvest up to its deadline (direct channel) cannot
    // cover its remaining energy — it must start on stored energy now,
    // before leakage taxes it.
    std::array<LoadMatchHead, 64> heads;
    std::size_t n_heads = 0;
    for (std::uint64_t nvp_mask : opt_.nvp_masks_) {
      std::uint64_t cand = enabled & nvp_mask;
      if (cand == 0) continue;
      auto head = static_cast<std::size_t>(std::countr_zero(cand));
      for (cand &= cand - 1; cand != 0; cand &= cand - 1) {
        const auto id = static_cast<std::size_t>(std::countr_zero(cand));
        const double dl = opt_.deadline_s_[id];
        const double dl_head = opt_.deadline_s_[head];
        if (dl != dl_head ? dl < dl_head : rem[id] < rem[head]) head = id;
      }
      const double future_j =
          (suffix_j_[m] - suffix_j_[std::max(dl_slot_[head], m)]) *
          opt_.pmu_.direct_eta;
      const bool forced = opt_.deadline_s_[head] - rem[head] < now + dt ||
                          future_j < rem[head] * opt_.power_w_[head];
      heads[n_heads++] = {head, opt_.power_w_[head], opt_.deadline_s_[head],
                          forced};
    }

    // Intra-style placement: match the chosen load to the free solar
    // budget (storage traffic is priced by the mismatch).
    const double direct_budget_w = solar_w_[m] * opt_.pmu_.direct_eta;
    const double deliverable_j = bank_.selected().deliverable_j();
    const double max_load_w =
        pmu_.supplyable_j(solar_w_[m], deliverable_j, dt) / dt;
    const std::uint64_t pick = load_match_heads(
        std::span(heads.data(), n_heads), direct_budget_w, max_load_w);
    double committed_w = 0.0;
    for (std::size_t i = 0; i < n_heads; ++i)
      if ((pick >> i) & 1u) committed_w += heads[i].power_w;
    const storage::SlotFlow flow =
        pmu_.run_slot(solar_w_[m], committed_w, deliverable_j, bank_, dt);

    Node& next = nodes_[m + 1];
    double* rem_next = &remaining_[(m + 1) * n_tasks_];
    std::copy(rem, rem + n_tasks_, rem_next);
    next.done = at.done;
    if (!flow.brownout)
      for (std::size_t i = 0; i < n_heads; ++i) {
        if (!((pick >> i) & 1u)) continue;
        const std::size_t id = heads[i].id;
        rem_next[id] = std::max(0.0, rem[id] - dt);
        if (rem_next[id] <= 1e-9) next.done |= bit(id);
        if (slots_) (*slots_)[m].push_back(id);
      }
    next.missed = at.missed | (expired_[m + 1] & ~next.done);
    next.voltage_v = bank_.selected().voltage_v();
    next.migrated_in_j = at.migrated_in_j + flow.migrated_in_j;
    next.cap_supplied_j = at.cap_supplied_j + flow.cap_supplied_j;
    ++slot_steps_;
  }

  const PeriodOptimizer& opt_;
  const std::vector<double>& solar_w_;
  const std::size_t n_tasks_;
  const std::size_t n_slots_;
  std::vector<double> suffix_j_;
  std::vector<std::size_t> dl_slot_;   ///< Deadline slot per task.
  std::vector<std::uint64_t> expired_; ///< Deadline passed by boundary m.
  storage::CapacitorBank bank_;
  storage::Pmu pmu_;
  double initial_usable_j_ = 0.0;
  std::vector<Node> nodes_;        ///< One per depth 0..n_slots.
  std::vector<double> remaining_;  ///< n_tasks per depth.

  const std::uint64_t* te_ = nullptr;
  Outcome* out_ = nullptr;
  std::vector<std::vector<std::size_t>>* slots_ = nullptr;
  std::vector<std::size_t> order_;  ///< Subset indices, grouped in place.
  std::size_t slot_steps_ = 0;
};

PeriodEval PeriodOptimizer::evaluate(const std::vector<bool>& te,
                                     const std::vector<double>& solar_w,
                                     double capacity_f, double v0) const {
  const std::size_t n = graph_->size();
  if (!te.empty() && te.size() != n)
    throw std::invalid_argument("PeriodOptimizer::evaluate: te size");
  const std::vector<bool> enabled = te.empty() ? std::vector<bool>(n, true) : te;
  std::uint64_t mask = 0;
  for (std::size_t id = 0; id < n; ++id)
    if (enabled[id]) mask |= bit(id);

  Kernel kernel(*this, solar_w, capacity_f, v0);
  Kernel::Outcome outcome;
  PeriodEval eval;
  kernel.run(std::span(&mask, 1), std::span(&outcome, 1), &eval.slots);
  eval.misses = outcome.misses;
  eval.dmr = n == 0 ? 0.0
                    : static_cast<double>(outcome.misses) /
                          static_cast<double>(n);
  eval.te_completed = (mask & ~outcome.done) == 0;
  eval.final_usable_j = outcome.final_usable_j;
  eval.final_voltage_v = outcome.final_voltage_v;
  eval.consumed_cap_j = kernel.initial_usable_j() - outcome.final_usable_j;
  eval.migrated_in_j = outcome.migrated_in_j;
  eval.cap_supplied_j = outcome.cap_supplied_j;
  eval.alpha = alpha_index(*graph_, enabled, solar_w, dt_s_);
  return eval;
}

std::vector<PeriodOption> PeriodOptimizer::pareto_options(
    const std::vector<double>& solar_w, double capacity_f, double v0) const {
  Kernel kernel(*this, solar_w, capacity_f, v0);
  std::vector<Kernel::Outcome> outcomes(closed_masks_.size());
  kernel.run(closed_masks_, outcomes, nullptr);
  OBS_COUNTER_ADD("sched.pareto.calls", 1);
  OBS_COUNTER_ADD("sched.pareto.subset_evals", closed_masks_.size());
  OBS_COUNTER_ADD("sched.pareto.slot_steps", kernel.slot_steps());

  double supply_j = 0.0;  // alpha_index's sum, in the same order.
  for (double p : solar_w) supply_j += p * dt_s_;

  // Best option per miss count, reduced serially in subset order: prefer
  // smaller E^c, tie-break on higher final energy, then the earliest subset.
  std::vector<PeriodOption> best(graph_->size() + 1);
  std::vector<bool> seen(graph_->size() + 1, false);
  for (std::size_t i = 0; i < closed_masks_.size(); ++i) {
    const Kernel::Outcome& eval = outcomes[i];
    const double consumed_cap_j =
        kernel.initial_usable_j() - eval.final_usable_j;
    const std::size_t k = eval.misses;
    if (k >= best.size()) continue;
    const bool better =
        !seen[k] || consumed_cap_j < best[k].consumed_cap_j - 1e-12 ||
        (std::fabs(consumed_cap_j - best[k].consumed_cap_j) <= 1e-12 &&
         eval.final_usable_j > best[k].final_usable_j);
    if (better) {
      seen[k] = true;
      best[k] = PeriodOption{k,
                             consumed_cap_j,
                             eval.final_usable_j,
                             eval.final_voltage_v,
                             alpha_index(closed_demand_j_[i], supply_j),
                             closed_masks_[i]};
    }
  }

  // Sized exactly: the DP's option cache holds every result it returns.
  std::vector<PeriodOption> out;
  out.reserve(
      static_cast<std::size_t>(std::count(seen.begin(), seen.end(), true)));
  for (std::size_t k = 0; k < best.size(); ++k)
    if (seen[k]) out.push_back(best[k]);
  return out;
}

}  // namespace solsched::sched

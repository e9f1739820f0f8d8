// Frozen per-subset period evaluator: the test-only oracle for
// PeriodOptimizer.
//
// This is the evaluator PeriodOptimizer used before its period kernel:
// every subset replays the whole period on its own through task::PeriodState,
// a one-capacitor storage::CapacitorBank and storage::Pmu, with per-NVP
// candidate lists built and insertion-sorted every slot. It deliberately
// shares no code with src/sched beyond the result structs, so comparing the
// kernel against it checks the kernel, not the kernel against itself.
// Keep it frozen: it is the definition of "the same plans bit for bit".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "sched/period_optimizer.hpp"
#include "storage/cap_bank.hpp"
#include "storage/pmu.hpp"
#include "task/period_state.hpp"
#include "task/task_graph.hpp"

namespace solsched::test {

/// The physical knobs a PeriodOptimizer is built with.
struct ReferenceNode {
  storage::PmuConfig pmu{};
  storage::RegulatorModel regulators;
  storage::LeakageModel leakage{};
  double v_low = 0.5;
  double v_high = 5.0;
  double dt_s = 30.0;
};

/// Live-ready tasks of `enabled` (empty = all) per NVP, each list sorted by
/// (deadline, remaining, id).
inline std::vector<std::vector<std::size_t>> reference_candidates(
    const task::TaskGraph& graph, const task::PeriodState& state,
    const std::vector<std::size_t>& live, const std::vector<bool>& enabled) {
  std::vector<std::vector<std::size_t>> by_nvp(graph.nvp_count());
  for (std::size_t id : live) {
    if (!enabled.empty() && !enabled[id]) continue;
    by_nvp[graph.task(id).nvp].push_back(id);
  }
  auto before = [&](std::size_t a, std::size_t b) {
    const auto& ta = graph.task(a);
    const auto& tb = graph.task(b);
    if (ta.deadline_s != tb.deadline_s) return ta.deadline_s < tb.deadline_s;
    if (state.remaining_s(a) != state.remaining_s(b))
      return state.remaining_s(a) < state.remaining_s(b);
    return a < b;
  };
  for (auto& list : by_nvp)
    for (std::size_t i = 1; i < list.size(); ++i) {
      const std::size_t v = list[i];
      std::size_t j = i;
      while (j > 0 && before(v, list[j - 1])) {
        list[j] = list[j - 1];
        --j;
      }
      list[j] = v;
    }
  return by_nvp;
}

/// The sorted-candidate load match: heads of each NVP's list; forced and
/// must-run heads always run (shed latest-deadline-first above
/// max_load_w); the optional-head combination closest to target_w wins,
/// more tasks on ties.
inline std::vector<std::size_t> reference_load_match(
    const task::TaskGraph& graph, const task::PeriodState& state,
    const std::vector<std::size_t>& live, double now_s, double dt_s,
    const std::vector<bool>& enabled, double target_w,
    const std::vector<bool>& must_run, double max_load_w) {
  const auto by_nvp = reference_candidates(graph, state, live, enabled);
  std::vector<std::size_t> heads;
  std::vector<bool> forced;
  double forced_w = 0.0;
  for (const auto& list : by_nvp) {
    if (list.empty()) continue;
    const std::size_t head = list.front();
    heads.push_back(head);
    const bool f =
        graph.task(head).deadline_s - state.remaining_s(head) < now_s + dt_s ||
        (!must_run.empty() && must_run[head]);
    forced.push_back(f);
    if (f) forced_w += graph.task(head).power_w;
  }
  while (forced_w > max_load_w + 1e-12) {
    int victim = -1;
    double latest = -1.0;
    for (std::size_t i = 0; i < heads.size(); ++i)
      if (forced[i] && graph.task(heads[i]).deadline_s > latest) {
        latest = graph.task(heads[i]).deadline_s;
        victim = static_cast<int>(i);
      }
    if (victim < 0) break;
    forced[static_cast<std::size_t>(victim)] = false;
    forced_w -= graph.task(heads[static_cast<std::size_t>(victim)]).power_w;
  }
  std::vector<std::size_t> opt;
  double base_w = 0.0;
  int base_count = 0;
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (forced[i]) {
      base_w += graph.task(heads[i]).power_w;
      ++base_count;
    } else {
      opt.push_back(i);
    }
  }
  const std::size_t m = opt.size();
  std::size_t best_mask = 0;
  double best_cost = std::numeric_limits<double>::max();
  int best_count = -1;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double load_w = base_w;
    int count = base_count;
    for (std::size_t b = 0; b < m; ++b)
      if ((mask >> b) & 1u) {
        load_w += graph.task(heads[opt[b]]).power_w;
        ++count;
      }
    if (load_w > max_load_w + 1e-12) continue;
    const double cost = std::fabs(target_w - load_w);
    if (cost < best_cost - 1e-12 ||
        (std::fabs(cost - best_cost) <= 1e-12 && count > best_count)) {
      best_cost = cost;
      best_count = count;
      best_mask = mask;
    }
  }
  std::vector<std::size_t> chosen;
  std::size_t b = 0;
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (forced[i]) {
      chosen.push_back(heads[i]);
    } else {
      if ((best_mask >> b) & 1u) chosen.push_back(heads[i]);
      ++b;
    }
  }
  return chosen;
}

/// One subset's full-period replay (PeriodOptimizer::evaluate's contract).
inline sched::PeriodEval reference_evaluate(const task::TaskGraph& graph,
                                            const ReferenceNode& node,
                                            const std::vector<bool>& te,
                                            const std::vector<double>& solar_w,
                                            double capacity_f, double v0) {
  const std::size_t n_slots = solar_w.size();
  const double dt = node.dt_s;
  const std::vector<bool> enabled =
      te.empty() ? std::vector<bool>(graph.size(), true) : te;
  std::vector<double> suffix_j(n_slots + 1, 0.0);
  for (std::size_t m = n_slots; m-- > 0;)
    suffix_j[m] = suffix_j[m + 1] + solar_w[m] * dt;

  storage::CapacitorBank bank({capacity_f}, node.regulators, node.leakage,
                              node.v_low, node.v_high);
  bank.selected().set_voltage(v0);
  const double initial_usable = bank.selected().usable_energy_j();
  const storage::Pmu pmu(node.pmu);
  task::PeriodState state(graph);
  sched::PeriodEval eval;
  eval.slots.resize(n_slots);

  for (std::size_t m = 0; m < n_slots; ++m) {
    const double now = static_cast<double>(m) * dt;
    state.mark_deadlines(now);
    std::vector<std::size_t> live;  // Ascending id order.
    const std::uint64_t live_mask = state.live_ready_mask(now);
    for (std::size_t id = 0; id < graph.size(); ++id)
      if ((live_mask >> id) & 1u) live.push_back(id);
    std::vector<bool> must_run(graph.size(), false);
    for (std::size_t id : live) {
      if (!enabled[id]) continue;
      const auto& t = graph.task(id);
      const auto dl_slot = std::min(
          n_slots,
          static_cast<std::size_t>(std::max(0.0, t.deadline_s / dt + 0.5)));
      const double future_j =
          (suffix_j[m] - suffix_j[std::max(dl_slot, m)]) * node.pmu.direct_eta;
      if (future_j < state.remaining_s(id) * t.power_w) must_run[id] = true;
    }
    const double direct_budget_w = solar_w[m] * node.pmu.direct_eta;
    const double max_load_w = pmu.supplyable_j(solar_w[m], bank, dt) / dt;
    const std::vector<std::size_t> chosen =
        reference_load_match(graph, state, live, now, dt, enabled,
                             direct_budget_w, must_run, max_load_w);
    double committed_w = 0.0;
    for (std::size_t id : chosen) committed_w += graph.task(id).power_w;
    const storage::SlotFlow flow =
        pmu.run_slot(solar_w[m], committed_w, bank, dt);
    if (!flow.brownout)
      for (std::size_t id : chosen) state.execute(id, dt);
    eval.migrated_in_j += flow.migrated_in_j;
    eval.cap_supplied_j += flow.cap_supplied_j;
    eval.slots[m] = flow.brownout ? std::vector<std::size_t>{} : chosen;
  }
  state.mark_deadlines(static_cast<double>(n_slots) * dt);

  eval.misses = state.miss_count();
  eval.dmr = state.dmr();
  eval.te_completed = true;
  for (std::size_t id = 0; id < graph.size(); ++id)
    if (enabled[id] && !state.completed(id)) eval.te_completed = false;
  eval.final_usable_j = bank.selected().usable_energy_j();
  eval.final_voltage_v = bank.selected().voltage_v();
  eval.consumed_cap_j = initial_usable - eval.final_usable_j;
  double demand_j = 0.0;
  for (std::size_t id = 0; id < graph.size(); ++id)
    if (enabled[id]) demand_j += graph.task(id).energy_j();
  double supply_j = 0.0;
  for (double p : solar_w) supply_j += p * dt;
  eval.alpha = supply_j <= 0.0 ? (demand_j > 0.0 ? 1e9 : 0.0)
                               : demand_j / supply_j;
  return eval;
}

/// Dependency-closed subsets in ascending mask order.
inline std::vector<std::vector<bool>> reference_closed_subsets(
    const task::TaskGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<std::vector<bool>> out;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<bool> te(n);
    for (std::size_t i = 0; i < n; ++i) te[i] = (mask >> i) & 1u;
    bool closed = true;
    for (const task::Edge& e : graph.edges())
      if (te[e.to] && !te[e.from]) closed = false;
    if (closed) out.push_back(std::move(te));
  }
  return out;
}

/// Serial Pareto reduction over reference_evaluate: per miss count the
/// smallest E^c (within 1e-12), ties to the higher final usable energy,
/// remaining ties to the earliest subset. `evals`, when given, receives
/// every subset's evaluation in subset order.
inline std::vector<sched::PeriodOption> reference_pareto(
    const task::TaskGraph& graph, const ReferenceNode& node,
    const std::vector<double>& solar_w, double capacity_f, double v0,
    std::vector<sched::PeriodEval>* evals = nullptr) {
  const std::size_t n = graph.size();
  std::vector<sched::PeriodOption> best(n + 1);
  std::vector<bool> seen(n + 1, false);
  for (const std::vector<bool>& te : reference_closed_subsets(graph)) {
    sched::PeriodEval eval =
        reference_evaluate(graph, node, te, solar_w, capacity_f, v0);
    const std::size_t k = eval.misses;
    const bool better =
        !seen[k] || eval.consumed_cap_j < best[k].consumed_cap_j - 1e-12 ||
        (std::fabs(eval.consumed_cap_j - best[k].consumed_cap_j) <= 1e-12 &&
         eval.final_usable_j > best[k].final_usable_j);
    if (better) {
      seen[k] = true;
      best[k] = sched::PeriodOption{k,
                                    eval.consumed_cap_j,
                                    eval.final_usable_j,
                                    eval.final_voltage_v,
                                    eval.alpha,
                                    te};
    }
    if (evals) evals->push_back(std::move(eval));
  }
  std::vector<sched::PeriodOption> out;
  for (std::size_t k = 0; k <= n; ++k)
    if (seen[k]) out.push_back(best[k]);
  return out;
}

}  // namespace solsched::test

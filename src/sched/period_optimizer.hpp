// Per-period minimum-energy scheduling (Eq. 15-18).
//
// Given a task subset te, the period's (oracle) solar slots and the selected
// capacitor's start state, finds a slot assignment that completes te's tasks
// by their deadlines while consuming as little capacitor energy as possible.
// Placement is greedy-lazy with full solar knowledge: run on free solar
// surplus whenever possible, otherwise as late as deadlines allow, spending
// stored energy early only when the remaining oracle harvest cannot cover a
// task. The paper's exact 2^(N·Ns) enumeration is replaced by this
// polynomial placement (documented in DESIGN.md); it reproduces the
// formulation's structure at a cost a DP over months can afford.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/leakage.hpp"
#include "storage/pmu.hpp"
#include "storage/regulator.hpp"
#include "task/task_graph.hpp"

namespace solsched::sched {

/// Result of evaluating one (te, solar, capacitor) period.
struct PeriodEval {
  bool te_completed = false;   ///< Every te task met its deadline.
  std::size_t misses = 0;      ///< Deadline misses across the whole task set.
  double dmr = 0.0;            ///< misses / N (Eq. 16's DMR_{i,j}).
  double consumed_cap_j = 0.0; ///< E^c: net usable-energy decrease (Eq. 15,
                               ///< negative when the period net-charges).
  double final_usable_j = 0.0; ///< Usable energy left in the capacitor.
  double final_voltage_v = 0.0;
  double alpha = 0.0;          ///< Pattern index (Eq. 18).
  double migrated_in_j = 0.0;
  double cap_supplied_j = 0.0;
  std::vector<std::vector<std::size_t>> slots;  ///< Chosen tasks per slot.
};

/// One entry of the per-period Pareto frontier: for a given achievable miss
/// count, the minimum-E^c way to reach it. Heap-free: te is the subset's
/// task mask (bit n = task n), the form the kernel and the DP labels use.
struct PeriodOption {
  std::size_t misses = 0;
  double consumed_cap_j = 0.0;
  double final_usable_j = 0.0;
  double final_voltage_v = 0.0;
  double alpha = 0.0;
  std::uint64_t te = 0;
};

/// Evaluates task subsets within one period over one capacitor.
class PeriodOptimizer {
 public:
  /// Throws std::invalid_argument above 64 tasks (the kernel keeps task
  /// sets as 64-bit masks).
  PeriodOptimizer(const task::TaskGraph& graph, storage::PmuConfig pmu,
                  storage::RegulatorModel regulators,
                  storage::LeakageModel leakage, double v_low, double v_high,
                  double dt_s);

  /// Simulates the period executing subset `te` (size N; empty = all tasks)
  /// with the greedy-lazy placement described above: the period kernel on
  /// one subset, recording each slot's chosen tasks.
  PeriodEval evaluate(const std::vector<bool>& te,
                      const std::vector<double>& solar_w, double capacity_f,
                      double v0) const;

  /// Evaluates every dependency-closed subset and returns, for each
  /// achievable miss count, the option with the smallest E^c (ties: the
  /// higher final usable energy, then the earliest subset). Sorted by
  /// ascending miss count.
  ///
  /// The sweep runs the period kernel over all subsets at once, sharing
  /// prefixes: the subsets walk the period as a slot-by-slot tree, and the
  /// ones that agree on te ∩ live at a node take the same decision there,
  /// so each distinct (state, te ∩ live) slot is simulated once. The
  /// reduction runs serially in subset order, so the options equal those
  /// of a loop over evaluate() (and do not depend on the thread count:
  /// the sweep is serial; the DP fans out across its cells instead).
  std::vector<PeriodOption> pareto_options(const std::vector<double>& solar_w,
                                           double capacity_f, double v0) const;

  const task::TaskGraph& graph() const noexcept { return *graph_; }

 private:
  class Kernel;

  const task::TaskGraph* graph_;
  storage::PmuConfig pmu_;
  storage::RegulatorModel regulators_;
  storage::LeakageModel leakage_;
  double v_low_;
  double v_high_;
  double dt_s_;
  // Per-task constants hoisted out of the kernel, indexed by task id.
  std::vector<double> power_w_;
  std::vector<double> deadline_s_;
  std::vector<std::uint64_t> pred_mask_;
  /// Task mask of each NVP that has tasks, in ascending NVP order.
  std::vector<std::uint64_t> nvp_masks_;
  /// Dependency-closed subsets as task masks, in closed_subsets() order.
  std::vector<std::uint64_t> closed_masks_;
  std::vector<double> closed_demand_j_;      ///< α numerator per subset.
};

}  // namespace solsched::sched

// Helpers shared by scheduling policies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nvp/scheduler.hpp"
#include "task/period_state.hpp"
#include "task/task_graph.hpp"

namespace solsched::sched {

/// The head finder every per-slot policy shares: for each NVP in index
/// order that has a task in `candidates` (a task mask), its first task in
/// EDF order — earliest deadline, then less remaining work, then lower id,
/// a total order over distinct tasks. Fixed inline storage, so one per slot
/// costs no heap.
class NvpHeads {
 public:
  NvpHeads(const task::TaskGraph& graph, const task::PeriodState& state,
           std::uint64_t candidates);

  /// Heads of the live ready tasks in `enabled` at the slot of `ctx`.
  NvpHeads(const nvp::SlotContext& ctx, std::uint64_t enabled)
      : NvpHeads(*ctx.graph, *ctx.state,
                 ctx.state->live_ready_mask(ctx.now_in_period_s) & enabled) {}

  /// Reorders the heads into one cross-NVP EDF order (same order).
  void sort_edf(const task::TaskGraph& graph, const task::PeriodState& state);

  std::size_t size() const noexcept { return count_; }
  const std::uint8_t* begin() const noexcept { return ids_.data(); }
  const std::uint8_t* end() const noexcept { return ids_.data() + count_; }

 private:
  std::array<std::uint8_t, 64> ids_{};  ///< First count_ entries used.
  std::size_t count_ = 0;
};

/// Latest slot-aligned start time after which `id` can no longer finish by
/// its deadline: deadline - remaining (s). Negative slack means the task can
/// no longer be saved.
double latest_start_s(const task::TaskGraph& graph,
                      const task::PeriodState& state, std::size_t id);

/// True if the task must run in the slot starting at now_s to have any
/// chance of meeting its deadline (slack smaller than one slot).
bool is_forced(const task::TaskGraph& graph, const task::PeriodState& state,
               std::size_t id, double now_s, double dt_s);

/// Dependency closure check: true if `subset` (bitmask vector) contains all
/// predecessors of each of its members.
bool dependency_closed(const task::TaskGraph& graph,
                       const std::vector<bool>& subset);

/// Enumerates all dependency-closed subsets of the task set. For N <= 8 this
/// is at most 256 masks, typically far fewer with chains.
std::vector<std::vector<bool>> closed_subsets(const task::TaskGraph& graph);

/// One NVP's head candidate for the load matcher: the live, enabled task
/// that NVP would run next (its NvpHeads entry).
/// Trivial on purpose: the period kernel keeps a fixed array of these per
/// slot and must not pay for initializing it.
struct LoadMatchHead {
  std::size_t id;
  double power_w;
  double deadline_s;
  bool forced;  ///< Deadline-forced or must-run.
};

/// The load-match core over per-NVP heads (in NVP order; more than 63
/// throws std::length_error): the forced heads always run, shed
/// latest-deadline-first while their load exceeds `max_load_w` (the PMU's
/// supplyable power this slot — a brownout would waste the slot entirely);
/// among the remaining optional heads, the combination whose total power is
/// closest to `target_w` without exceeding `max_load_w` joins them (ties:
/// more tasks, then the first combination in mask order). Returns the
/// chosen heads as a bit mask over positions in `heads`.
std::uint64_t load_match_heads(std::span<const LoadMatchHead> heads,
                               double target_w, double max_load_w);

/// Per-slot load-matching decision of the intra-task baseline and the
/// optimal scheduler's online pass: load_match_heads over the NvpHeads of
/// the live tasks in `enabled`, forcing the deadline-forced heads and those
/// in `must_run` (both task masks). Adds the chosen tasks in NVP order.
nvp::SlotAction load_match_decision(const task::TaskGraph& graph,
                                    const task::PeriodState& state,
                                    double now_s, double dt_s,
                                    std::uint64_t enabled, double target_w,
                                    std::uint64_t must_run = 0,
                                    double max_load_w = 1e18);

/// Per-period admission of the duty-cycle and greedy policies: walks
/// `order`, enabling each task together with its not-yet-enabled dependency
/// closure while the closure energies admitted so far fit `budget_j`; a
/// task whose closure does not fit is skipped. Returns the te vector.
std::vector<bool> admit_in_order(const task::TaskGraph& graph,
                                 const std::vector<std::size_t>& order,
                                 double budget_j);

/// Scavenging pass of Proposed and Optimal: the heads of the live tasks in
/// `off_te` (the tasks outside the period's te) join `action` on NVPs it
/// leaves idle, while its load stays within `budget_w` — free solar only,
/// never stored energy, so the period's energy plan is unaffected.
void scavenge_free_solar(const nvp::SlotContext& ctx, std::uint64_t off_te,
                         double budget_w, nvp::SlotAction& action);

/// The scheduling-pattern index α (Eq. 18): energy demanded by the subset /
/// solar energy supplied in the period. Returns a large sentinel (1e9) when
/// the period has no solar.
double alpha_index(const task::TaskGraph& graph,
                   const std::vector<bool>& subset,
                   const std::vector<double>& solar_slots_w, double dt_s);

/// α from its two sums (demand Σ S_n·P_n over the subset in id order,
/// supply Σ P^s·Δt over the slots in order), with the same sentinel.
double alpha_index(double demand_j, double supply_j);

}  // namespace solsched::sched

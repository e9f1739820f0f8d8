// Helpers shared by scheduling policies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "task/period_state.hpp"
#include "task/task_graph.hpp"

namespace solsched::sched {

/// Live, ready candidate tasks grouped by NVP, each NVP's list sorted by
/// earliest deadline first (ties: less remaining work first, then id).
/// Only tasks with `enabled` true are considered (empty mask = all).
std::vector<std::vector<std::size_t>> candidates_by_nvp(
    const task::TaskGraph& graph, const task::PeriodState& state,
    double now_s, const std::vector<bool>& enabled);

/// Latest slot-aligned start time after which `id` can no longer finish by
/// its deadline: deadline - remaining (s). Negative slack means the task can
/// no longer be saved.
double latest_start_s(const task::TaskGraph& graph,
                      const task::PeriodState& state, std::size_t id);

/// True if the task must run in the slot starting at now_s to have any
/// chance of meeting its deadline (slack smaller than one slot).
bool is_forced(const task::TaskGraph& graph, const task::PeriodState& state,
               std::size_t id, double now_s, double dt_s);

/// Sum of execution power of the chosen task set (W).
double total_power_w(const task::TaskGraph& graph,
                     const std::vector<std::size_t>& chosen);

/// Dependency closure check: true if `subset` (bitmask vector) contains all
/// predecessors of each of its members.
bool dependency_closed(const task::TaskGraph& graph,
                       const std::vector<bool>& subset);

/// Enumerates all dependency-closed subsets of the task set. For N <= 8 this
/// is at most 256 masks, typically far fewer with chains.
std::vector<std::vector<bool>> closed_subsets(const task::TaskGraph& graph);

/// One NVP's head candidate for the load matcher: the live, enabled task
/// that NVP would run next (the front of its candidates_by_nvp list).
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
/// optimal scheduler's online pass: load_match_heads over each NVP's head
/// candidate, forcing the deadline-forced heads and those listed in
/// `must_run`. Returns the chosen task ids in NVP order.
std::vector<std::size_t> load_match_decision(
    const task::TaskGraph& graph, const task::PeriodState& state,
    double now_s, double dt_s, const std::vector<bool>& enabled,
    double target_w, const std::vector<bool>& must_run = {},
    double max_load_w = 1e18);

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

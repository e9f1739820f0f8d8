// Per-period runtime state of a task set (Eq. 4-5, 7).
//
// Tasks are periodic and independent across periods, so all execution
// bookkeeping resets at each period boundary. Within a period this tracks
// remaining execution time S'_n, readiness (all predecessors complete),
// and deadline misses θ(S'_{D_n}).
//
// For graphs with n <= 64 (every benchmark in the paper has n <= 13) the
// completed/missed sets live in two 64-bit masks: readiness is one subset
// test against TaskGraph::pred_mask, counts are popcounts, and deadline
// marking walks the graph's deadline-sorted order from a cursor instead of
// rescanning all tasks. The simulator and the online schedulers query this
// state every slot (the DP's period kernel keeps its own mask state, see
// sched/period_optimizer.cpp). Larger graphs transparently use the original
// vector path; both paths are observationally identical
// (tests/task/period_state-masked tests assert equivalence against a
// reference copy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "task/task_graph.hpp"

namespace solsched::task {

/// Mutable execution state of one benchmark instance within one period.
class PeriodState {
 public:
  explicit PeriodState(const TaskGraph& graph);

  const TaskGraph& graph() const noexcept { return *graph_; }

  /// Restores the fresh-period state (S' = S_n, nothing missed).
  void reset();

  /// Remaining execution time S'_n (s).
  double remaining_s(std::size_t id) const { return remaining_.at(id); }

  /// True when S'_n == 0.
  bool completed(std::size_t id) const {
    if (use_masks_) return (completed_mask_ >> check_id(id)) & 1u;
    return remaining_.at(id) <= 1e-9;
  }

  /// True when every predecessor is completed (Eq. 7) and the task itself
  /// is not yet complete.
  bool ready(std::size_t id) const;

  /// True if the deadline passed with work left (sticky once set).
  bool missed(std::size_t id) const {
    if (use_masks_) return (missed_mask_ >> check_id(id)) & 1u;
    return missed_.at(id);
  }

  /// Advances task `id` by dt seconds of execution (not below zero).
  void execute(std::size_t id, double dt_s);

  /// Volatile-baseline power failure (DESIGN.md §11): every *incomplete*
  /// task loses its accumulated progress (S' back to S_n). Completed
  /// results persist — they were committed before the failure. Returns the
  /// progress-seconds wiped.
  double lose_progress();

  /// Marks misses: every incomplete task whose deadline D_n <= now_s becomes
  /// missed. Call at each slot boundary; the paper evaluates θ at the first
  /// slot boundary at or after D_n.
  void mark_deadlines(double now_s);

  /// Tasks that are ready, unfinished, and still have a live deadline
  /// (deadline not yet passed), i.e. worth scheduling for DMR.
  std::vector<std::size_t> live_ready_tasks(double now_s) const;

  /// Number of missed tasks so far.
  std::size_t miss_count() const;

  /// Number of completed tasks.
  std::size_t completed_count() const;

  /// Deadline miss rate of the period: misses / N. Call after the final
  /// mark_deadlines of the period.
  double dmr() const;

 private:
  std::size_t check_id(std::size_t id) const {
    if (id >= remaining_.size()) throw std::out_of_range("PeriodState: id");
    return id;
  }

  const TaskGraph* graph_;
  std::vector<double> remaining_;
  std::vector<bool> missed_;  ///< Only maintained when !use_masks_.

  bool use_masks_ = false;
  std::uint64_t completed_mask_ = 0;
  std::uint64_t missed_mask_ = 0;
  /// Cursor into graph_->deadline_order(): everything before it has been
  /// examined by mark_deadlines. Valid while now_s is non-decreasing;
  /// a backwards call (reused state) falls back to a full rescan.
  std::size_t deadline_cursor_ = 0;
  double last_marked_s_ = 0.0;
};

}  // namespace solsched::task

// Per-period runtime state of a task set (Eq. 4-5, 7).
//
// Tasks are periodic and independent across periods, so all execution
// bookkeeping resets at each period boundary. Within a period this tracks
// remaining execution time S'_n, readiness (all predecessors complete),
// and deadline misses θ(S'_{D_n}).
//
// The completed and missed sets are two 64-bit masks, so a graph may have
// at most 64 tasks (every benchmark in the paper has n <= 13; the DP's
// period kernel has the same bound). Readiness is one subset test against
// TaskGraph::pred_mask, counts are popcounts, and deadline marking walks
// the graph's deadline-sorted order from a cursor instead of rescanning
// all tasks. The simulator and the online schedulers query this state
// every slot through the masks (the DP's period kernel keeps its own mask
// state, see sched/period_optimizer.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "task/task_graph.hpp"

namespace solsched::task {

/// Mutable execution state of one benchmark instance within one period.
class PeriodState {
 public:
  /// Throws std::invalid_argument, naming the task count, for a graph of
  /// more than 64 tasks.
  explicit PeriodState(const TaskGraph& graph);

  const TaskGraph& graph() const noexcept { return *graph_; }

  /// Restores the fresh-period state (S' = S_n, nothing missed).
  void reset();

  /// Remaining execution time S'_n (s).
  double remaining_s(std::size_t id) const { return remaining_.at(id); }

  /// True when S'_n == 0.
  bool completed(std::size_t id) const {
    return (completed_mask_ >> check_id(id)) & 1u;
  }

  /// True when every predecessor is completed (Eq. 7) and the task itself
  /// is not yet complete.
  bool ready(std::size_t id) const;

  /// True if the deadline passed with work left (sticky once set).
  bool missed(std::size_t id) const {
    return (missed_mask_ >> check_id(id)) & 1u;
  }

  /// Bit set of the completed tasks.
  std::uint64_t completed_mask() const noexcept { return completed_mask_; }

  /// Bit set of the missed tasks.
  std::uint64_t missed_mask() const noexcept { return missed_mask_; }

  /// Bit set of the tasks that are ready, unfinished, not missed and still
  /// have a live deadline (D_n > now_s), i.e. worth scheduling for DMR.
  std::uint64_t live_ready_mask(double now_s) const;

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
  std::uint64_t completed_mask_ = 0;
  std::uint64_t missed_mask_ = 0;
  /// Cursor into graph_->deadline_order(): everything before it has been
  /// examined by mark_deadlines. Valid while now_s is non-decreasing;
  /// a backwards call (reused state) falls back to a full rescan.
  std::size_t deadline_cursor_ = 0;
  double last_marked_s_ = 0.0;
};

}  // namespace solsched::task

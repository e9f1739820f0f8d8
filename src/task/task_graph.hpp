// Task DAG G(V, W) with the structural queries schedulers need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "task/task.hpp"

namespace solsched::task {

/// Immutable-after-build task graph of one benchmark.
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Builds and validates the graph. Throws std::invalid_argument if ids are
  /// inconsistent, an edge references a missing task, or the graph is cyclic.
  TaskGraph(std::string name, std::vector<Task> tasks, std::vector<Edge> edges);

  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return tasks_.size(); }
  const std::vector<Task>& tasks() const noexcept { return tasks_; }
  const Task& task(std::size_t id) const { return tasks_.at(id); }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Number of NVPs referenced (max nvp index + 1; 0 when empty).
  std::size_t nvp_count() const noexcept { return nvp_count_; }

  /// Direct predecessors of task `id` (tasks it depends on).
  const std::vector<std::size_t>& predecessors(std::size_t id) const {
    return preds_.at(id);
  }
  /// Direct successors of task `id`.
  const std::vector<std::size_t>& successors(std::size_t id) const {
    return succs_.at(id);
  }

  /// Task ids in a topological order (dependencies first).
  const std::vector<std::size_t>& topo_order() const noexcept { return topo_; }

  /// True when the graph fits the 64-bit task sets that PeriodState, the
  /// slot simulator and the DP's period kernel use (every benchmark in the
  /// paper has n <= 13).
  bool mask_capable() const noexcept { return tasks_.size() <= 64; }

  /// Bit set of direct predecessors of `id` (only when mask_capable()).
  std::uint64_t pred_mask(std::size_t id) const { return pred_masks_.at(id); }

  /// Bit set of every task id (only when mask_capable()).
  std::uint64_t all_tasks_mask() const noexcept { return all_mask_; }

  /// Bit set of the tasks bound to NVP `nvp` (only when mask_capable()).
  std::uint64_t nvp_mask(std::size_t nvp) const { return nvp_masks_.at(nvp); }

  /// Task ids sorted by (deadline_s, id) — the order deadline sweeps fire.
  const std::vector<std::size_t>& deadline_order() const noexcept {
    return deadline_order_;
  }

  /// Task ids bound to the given NVP.
  std::vector<std::size_t> tasks_on_nvp(std::size_t nvp) const;

  /// Total energy to run every task once (J).
  double total_energy_j() const noexcept;

  /// Total execution time summed over tasks (s).
  double total_exec_s() const noexcept;

  /// Largest power drawn if every NVP ran its most power-hungry task (W) —
  /// an upper bound on instantaneous load.
  double peak_power_w() const;

 private:
  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> preds_;
  std::vector<std::vector<std::size_t>> succs_;
  std::vector<std::size_t> topo_;
  std::vector<std::uint64_t> pred_masks_;
  std::vector<std::uint64_t> nvp_masks_;
  std::uint64_t all_mask_ = 0;
  std::vector<std::size_t> deadline_order_;
  std::size_t nvp_count_ = 0;
};

/// Task mask of every task, whatever the graph: intersected with a
/// PeriodState mask it keeps exactly the graph's tasks.
inline constexpr std::uint64_t kEveryTask = ~std::uint64_t{0};

/// A te vector (the paper's per-period task subset) as a task mask: bit n
/// set when te[n] is true; an empty vector means every task (kEveryTask).
std::uint64_t te_mask(const std::vector<bool>& te);

}  // namespace solsched::task

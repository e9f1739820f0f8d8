#include "task/period_state.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace solsched::task {

PeriodState::PeriodState(const TaskGraph& graph) : graph_(&graph) {
  if (!graph.mask_capable())
    throw std::invalid_argument("PeriodState: graph has " +
                                std::to_string(graph.size()) +
                                " tasks; at most 64 are supported");
  reset();
}

void PeriodState::reset() {
  const std::size_t n = graph_->size();
  remaining_.resize(n);
  completed_mask_ = 0;
  missed_mask_ = 0;
  // exec_s is validated positive, but honour the 1e-9 completion epsilon
  // that execute() applies.
  for (std::size_t i = 0; i < n; ++i) {
    remaining_[i] = graph_->task(i).exec_s;
    if (remaining_[i] <= 1e-9) completed_mask_ |= std::uint64_t{1} << i;
  }
  deadline_cursor_ = 0;
  last_marked_s_ = -std::numeric_limits<double>::infinity();
}

bool PeriodState::ready(std::size_t id) const {
  if ((completed_mask_ >> check_id(id)) & 1u) return false;
  const std::uint64_t preds = graph_->pred_mask(id);
  return (completed_mask_ & preds) == preds;
}

std::uint64_t PeriodState::live_ready_mask(double now_s) const {
  std::uint64_t cand =
      graph_->all_tasks_mask() & ~(completed_mask_ | missed_mask_);
  std::uint64_t live = 0;
  while (cand != 0) {
    const auto i = static_cast<std::size_t>(std::countr_zero(cand));
    cand &= cand - 1;
    const std::uint64_t preds = graph_->pred_mask(i);
    if ((completed_mask_ & preds) == preds &&
        graph_->task(i).deadline_s > now_s)
      live |= std::uint64_t{1} << i;
  }
  return live;
}

void PeriodState::execute(std::size_t id, double dt_s) {
  double& rem = remaining_.at(id);
  rem = std::max(0.0, rem - dt_s);
  if (rem <= 1e-9) completed_mask_ |= std::uint64_t{1} << id;
}

double PeriodState::lose_progress() {
  double lost_s = 0.0;
  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    if (completed(i)) continue;
    const double full = graph_->task(i).exec_s;
    lost_s += full - remaining_[i];
    remaining_[i] = full;
  }
  return lost_s;
}

void PeriodState::mark_deadlines(double now_s) {
  if (now_s < last_marked_s_) deadline_cursor_ = 0;  // Reused state: rescan.
  last_marked_s_ = now_s;
  const auto& order = graph_->deadline_order();
  while (deadline_cursor_ < order.size()) {
    const std::size_t id = order[deadline_cursor_];
    if (graph_->task(id).deadline_s > now_s) break;
    // First boundary at or after D_n: incomplete => missed, sticky either
    // way, so each task needs examining exactly once.
    const std::uint64_t bit = std::uint64_t{1} << id;
    if (!(completed_mask_ & bit)) missed_mask_ |= bit;
    ++deadline_cursor_;
  }
}

std::size_t PeriodState::miss_count() const {
  return static_cast<std::size_t>(std::popcount(missed_mask_));
}

std::size_t PeriodState::completed_count() const {
  return static_cast<std::size_t>(std::popcount(completed_mask_));
}

double PeriodState::dmr() const {
  if (remaining_.empty()) return 0.0;
  return static_cast<double>(miss_count()) /
         static_cast<double>(remaining_.size());
}

}  // namespace solsched::task

#include "task/period_state.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace solsched::task {

PeriodState::PeriodState(const TaskGraph& graph)
    : graph_(&graph), use_masks_(graph.mask_capable()) {
  reset();
}

void PeriodState::reset() {
  const std::size_t n = graph_->size();
  remaining_.resize(n);
  for (std::size_t i = 0; i < n; ++i) remaining_[i] = graph_->task(i).exec_s;
  if (use_masks_) {
    completed_mask_ = 0;
    missed_mask_ = 0;
    // exec_s is validated positive, but honour the 1e-9 completion epsilon
    // uniformly with the vector path.
    for (std::size_t i = 0; i < n; ++i)
      if (remaining_[i] <= 1e-9) completed_mask_ |= std::uint64_t{1} << i;
    deadline_cursor_ = 0;
    last_marked_s_ = -std::numeric_limits<double>::infinity();
  } else {
    missed_.assign(n, false);
  }
}

bool PeriodState::ready(std::size_t id) const {
  if (use_masks_) {
    check_id(id);
    if ((completed_mask_ >> id) & 1u) return false;
    const std::uint64_t preds = graph_->pred_mask(id);
    return (completed_mask_ & preds) == preds;
  }
  if (completed(id)) return false;
  for (std::size_t p : graph_->predecessors(id))
    if (!completed(p)) return false;
  return true;
}

void PeriodState::execute(std::size_t id, double dt_s) {
  double& rem = remaining_.at(id);
  rem = std::max(0.0, rem - dt_s);
  if (use_masks_ && rem <= 1e-9) completed_mask_ |= std::uint64_t{1} << id;
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
  if (!use_masks_) {
    for (std::size_t i = 0; i < remaining_.size(); ++i)
      if (!missed_[i] && !completed(i) && graph_->task(i).deadline_s <= now_s)
        missed_[i] = true;
    return;
  }
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

std::vector<std::size_t> PeriodState::live_ready_tasks(double now_s) const {
  std::vector<std::size_t> out;
  if (use_masks_) {
    std::uint64_t cand = ~(completed_mask_ | missed_mask_);
    if (remaining_.size() < 64) cand &= (std::uint64_t{1} << remaining_.size()) - 1;
    while (cand != 0) {  // Ascending id order, matching the vector path.
      const int i = std::countr_zero(cand);
      cand &= cand - 1;
      const std::uint64_t preds = graph_->pred_mask(static_cast<std::size_t>(i));
      if ((completed_mask_ & preds) == preds &&
          graph_->task(static_cast<std::size_t>(i)).deadline_s > now_s)
        out.push_back(static_cast<std::size_t>(i));
    }
    return out;
  }
  for (std::size_t i = 0; i < remaining_.size(); ++i)
    if (ready(i) && !missed_[i] && graph_->task(i).deadline_s > now_s)
      out.push_back(i);
  return out;
}

std::size_t PeriodState::miss_count() const {
  if (use_masks_) return static_cast<std::size_t>(std::popcount(missed_mask_));
  return static_cast<std::size_t>(
      std::count(missed_.begin(), missed_.end(), true));
}

std::size_t PeriodState::completed_count() const {
  if (use_masks_)
    return static_cast<std::size_t>(std::popcount(completed_mask_));
  std::size_t acc = 0;
  for (std::size_t i = 0; i < remaining_.size(); ++i)
    if (completed(i)) ++acc;
  return acc;
}

double PeriodState::dmr() const {
  if (remaining_.empty()) return 0.0;
  return static_cast<double>(miss_count()) /
         static_cast<double>(remaining_.size());
}

}  // namespace solsched::task

#include "nvp/exec_trace.hpp"

#include <algorithm>
#include <sstream>

namespace solsched::nvp {

void RecordingScheduler::begin_trace(const task::TaskGraph& graph,
                                     const NodeConfig& config,
                                     const solar::SolarTrace& trace) {
  slots_.clear();
  period_caps_.clear();
  current_cap_ = config.initial_cap;
  inner_->begin_trace(graph, config, trace);
}

PeriodPlan RecordingScheduler::begin_period(const PeriodContext& ctx) {
  PeriodPlan plan = inner_->begin_period(ctx);
  if (plan.select_cap) current_cap_ = *plan.select_cap;
  period_caps_.push_back(current_cap_);
  return plan;
}

SlotAction RecordingScheduler::decide_slot(const SlotContext& ctx) {
  const SlotAction action = inner_->decide_slot(ctx);
  slots_.push_back(SlotRecord{{action.begin(), action.end()}});
  return action;
}

std::string render_gantt(const task::TaskGraph& graph,
                         const std::vector<SlotRecord>& slots,
                         std::size_t begin, std::size_t end,
                         std::size_t slots_per_period) {
  end = std::min(end, slots.size());
  if (begin >= end) return {};

  // Label column width.
  std::size_t width = 4;
  for (const auto& t : graph.tasks()) width = std::max(width, t.name.size());

  std::ostringstream out;
  for (std::size_t id = 0; id < graph.size(); ++id) {
    const std::string& name = graph.task(id).name;
    out << name << std::string(width - name.size(), ' ') << " |";
    for (std::size_t s = begin; s < end; ++s) {
      if (slots_per_period && s > begin && (s % slots_per_period) == 0)
        out << '|';
      const auto& executed = slots[s].executed;
      const bool on = std::find(executed.begin(), executed.end(), id) !=
                      executed.end();
      out << (on ? '#' : '.');
    }
    out << "|\n";
  }
  return out.str();
}

}  // namespace solsched::nvp

#include "sched/asap.hpp"

#include <bit>

#include "sched/sched_util.hpp"

namespace solsched::sched {

nvp::PeriodPlan AsapScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

nvp::SlotAction AsapScheduler::decide_slot(const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  nvp::SlotAction action;

  if (only_live_) {
    for (std::size_t id : NvpHeads(ctx, task::kEveryTask))
      action.add(graph, id);
    return action;
  }

  // Pure ASAP: every ready incomplete task, earliest deadline first per NVP
  // (ties: lower id), deadline passed or not.
  std::uint64_t ready = 0;
  for (std::size_t id = 0; id < graph.size(); ++id)
    if (state.ready(id)) ready |= std::uint64_t{1} << id;
  for (std::size_t k = 0; k < graph.nvp_count(); ++k) {
    std::uint64_t on_nvp = ready & graph.nvp_mask(k);
    if (on_nvp == 0) continue;
    auto best = static_cast<std::size_t>(std::countr_zero(on_nvp));
    for (; on_nvp != 0; on_nvp &= on_nvp - 1) {
      const auto id = static_cast<std::size_t>(std::countr_zero(on_nvp));
      if (graph.task(id).deadline_s < graph.task(best).deadline_s) best = id;
    }
    action.add(graph, best);
  }
  return action;
}

}  // namespace solsched::sched

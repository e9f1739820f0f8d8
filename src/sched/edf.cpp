#include "sched/edf.hpp"

#include "sched/sched_util.hpp"

namespace solsched::sched {

nvp::PeriodPlan EdfScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

nvp::SlotAction EdfScheduler::decide_slot(const nvp::SlotContext& ctx) {
  nvp::SlotAction action;
  for (std::size_t id : NvpHeads(ctx, task::kEveryTask))
    action.add(*ctx.graph, id);
  return action;
}

}  // namespace solsched::sched

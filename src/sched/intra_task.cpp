#include "sched/intra_task.hpp"

#include "sched/sched_util.hpp"

namespace solsched::sched {

nvp::PeriodPlan IntraTaskScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

nvp::SlotAction IntraTaskScheduler::match_load(const nvp::SlotContext& ctx,
                                               std::uint64_t enabled,
                                               double target_w) {
  return load_match_decision(*ctx.graph, *ctx.state, ctx.now_in_period_s,
                             ctx.grid->dt_s, enabled, target_w, 0,
                             ctx.supplyable_w());
}

nvp::SlotAction IntraTaskScheduler::decide_slot(const nvp::SlotContext& ctx) {
  // Match against the usable solar power through the direct channel.
  return match_load(ctx, task::kEveryTask,
                    ctx.solar_w * ctx.pmu->config().direct_eta);
}

}  // namespace solsched::sched

#include "sched/duty_cycle.hpp"

#include <algorithm>

#include "sched/sched_util.hpp"

namespace solsched::sched {

void DutyCycleScheduler::begin_trace(const task::TaskGraph&,
                                     const nvp::NodeConfig&,
                                     const solar::SolarTrace&) {
  harvest_estimate_j_ = 0.0;
  harvest_seen_ = false;
  budget_j_ = 0.0;
  enabled_mask_ = task::kEveryTask;
}

nvp::PeriodPlan DutyCycleScheduler::begin_period(
    const nvp::PeriodContext& ctx) {
  const auto& graph = *ctx.graph;

  // Update the harvest estimate from the measured previous period.
  double last_j = 0.0;
  for (double p : ctx.last_period_solar_w) last_j += p * ctx.grid->dt_s;
  if (!ctx.last_period_solar_w.empty()) {
    harvest_estimate_j_ =
        harvest_seen_
            ? config_.harvest_ewma * last_j +
                  (1.0 - config_.harvest_ewma) * harvest_estimate_j_
            : last_j;
    harvest_seen_ = true;
  }

  // Budget: expected usable harvest plus a bounded storage withdrawal.
  budget_j_ = harvest_estimate_j_ * config_.direct_eta +
              config_.storage_draw * ctx.bank->selected().deliverable_j();

  // Enable tasks in deadline order (most urgent first) while they fit; a
  // task's dependencies must already be enabled or it cannot complete.
  std::vector<std::size_t> order(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return graph.task(a).deadline_s < graph.task(b).deadline_s;
  });

  nvp::PeriodPlan plan;
  plan.tasks_enabled = admit_in_order(graph, order, budget_j_);
  enabled_mask_ = task::te_mask(plan.tasks_enabled);
  return plan;
}

nvp::SlotAction DutyCycleScheduler::decide_slot(const nvp::SlotContext& ctx) {
  // EDF over the enabled subset, shedding to the supplyable load.
  const auto& graph = *ctx.graph;
  const double max_load_w = ctx.supplyable_w();
  nvp::SlotAction action;
  for (std::size_t head : NvpHeads(ctx, enabled_mask_))
    if (action.load_w() + graph.task(head).power_w <= max_load_w)
      action.add(graph, head);
  return action;
}

}  // namespace solsched::sched

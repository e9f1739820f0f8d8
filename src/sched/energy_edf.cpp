#include "sched/energy_edf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sched/sched_util.hpp"

namespace solsched::sched {
namespace {

/// Per-NVP EDF heads of the live tasks in `enabled`, flattened into one
/// cross-NVP EDF order (the same order NvpHeads applies within an NVP).
NvpHeads edf_heads(const nvp::SlotContext& ctx, std::uint64_t enabled) {
  NvpHeads heads(ctx, enabled);
  heads.sort_edf(*ctx.graph, *ctx.state);
  return heads;
}

/// Tasks neither completed nor missed, ascending id order when walked.
std::uint64_t open_tasks(const task::TaskGraph& graph,
                         const task::PeriodState& state) {
  return graph.all_tasks_mask() &
         ~(state.completed_mask() | state.missed_mask());
}

}  // namespace

// ---- CC-EDF ---------------------------------------------------------------

nvp::PeriodPlan CcEdfScheduler::begin_period(const nvp::PeriodContext&) {
  return {};  // All tasks, keep the capacitor: CC-EDF acts per slot.
}

nvp::SlotAction CcEdfScheduler::decide_slot(const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;
  const double max_load_w = ctx.supplyable_w();

  // Cycle-conserving requirement: the average power the *remaining* live
  // work needs to meet its deadlines from now. Completed or missed tasks
  // contribute nothing, so the requirement decays through the period.
  double required_w = 0.0;
  for (std::uint64_t rest = open_tasks(graph, state); rest != 0;
       rest &= rest - 1) {
    const auto id = static_cast<std::size_t>(std::countr_zero(rest));
    const double slack_s = graph.task(id).deadline_s - ctx.now_in_period_s;
    if (slack_s <= 0.0) continue;
    required_w += state.remaining_s(id) * graph.task(id).power_w /
                  std::max(slack_s, dt);
  }

  nvp::SlotAction action;
  for (std::size_t head : edf_heads(ctx, task::kEveryTask)) {
    const double p = graph.task(head).power_w;
    if (action.load_w() + p > max_load_w) continue;  // Would brown out.
    const bool forced =
        is_forced(graph, state, head, ctx.now_in_period_s, dt);
    if (forced || action.load_w() + p <= required_w) action.add(graph, head);
  }
  return action;
}

// ---- LA-EDF ---------------------------------------------------------------

nvp::PeriodPlan LaEdfScheduler::begin_period(const nvp::PeriodContext&) {
  return {};  // All tasks; the look-ahead happens per slot.
}

nvp::SlotAction LaEdfScheduler::decide_slot(const nvp::SlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;
  const double max_load_w = ctx.supplyable_w();

  // Aggregate look-ahead: remaining energy demand of the live task set vs
  // what is in hand (deliverable storage) plus the forecast harvest up to
  // the latest live deadline.
  double demand_j = 0.0;
  double latest_deadline_s = ctx.now_in_period_s;
  for (std::uint64_t rest = open_tasks(graph, state); rest != 0;
       rest &= rest - 1) {
    const auto id = static_cast<std::size_t>(std::countr_zero(rest));
    if (graph.task(id).deadline_s <= ctx.now_in_period_s) continue;
    demand_j += state.remaining_s(id) * graph.task(id).power_w;
    latest_deadline_s = std::max(latest_deadline_s, graph.task(id).deadline_s);
  }
  const std::size_t horizon_slots = static_cast<std::size_t>(
      std::ceil((latest_deadline_s - ctx.now_in_period_s) / dt));
  const double forecast_j =
      ctx.predictor
          ? config_.direct_eta * ctx.predictor->predict_energy_j(horizon_slots, dt)
          : 0.0;
  const double available_j = ctx.deliverable_j + forecast_j;
  const bool can_defer = available_j >= demand_j * (1.0 + config_.reserve);

  nvp::SlotAction action;
  for (std::size_t head : edf_heads(ctx, task::kEveryTask)) {
    if (action.load_w() + graph.task(head).power_w > max_load_w) continue;
    if (can_defer &&
        !is_forced(graph, state, head, ctx.now_in_period_s, dt))
      continue;  // Energy covers the plan: procrastinate, bank the harvest.
    action.add(graph, head);
  }
  return action;
}

// ---- Greedy energy feasibility --------------------------------------------

nvp::PeriodPlan GreedyFeasibleScheduler::begin_period(
    const nvp::PeriodContext& ctx) {
  const auto& graph = *ctx.graph;

  // Admission budget: forecast harvest over the whole period plus whatever
  // the selected capacitor can deliver right now.
  const double forecast_j =
      ctx.predictor ? config_.direct_eta * ctx.predictor->predict_energy_j(
                                               ctx.grid->n_slots, ctx.grid->dt_s)
                    : 0.0;
  budget_j_ = forecast_j + ctx.bank->selected().deliverable_j();

  // Enable jobs in deadline order while they (and their not-yet-enabled
  // dependency closure) fit the budget; jobs that do not fit are skipped —
  // spending energy on a task that cannot finish only starves the rest.
  std::vector<std::size_t> order(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (graph.task(a).deadline_s != graph.task(b).deadline_s)
      return graph.task(a).deadline_s < graph.task(b).deadline_s;
    return a < b;
  });

  nvp::PeriodPlan plan;
  plan.tasks_enabled = admit_in_order(graph, order, budget_j_);
  enabled_mask_ = task::te_mask(plan.tasks_enabled);
  return plan;
}

nvp::SlotAction GreedyFeasibleScheduler::decide_slot(
    const nvp::SlotContext& ctx) {
  // EDF over the admitted subset, shed to the supplyable load.
  const auto& graph = *ctx.graph;
  const double max_load_w = ctx.supplyable_w();
  nvp::SlotAction action;
  for (std::size_t head : edf_heads(ctx, enabled_mask_)) {
    if (action.load_w() + graph.task(head).power_w > max_load_w) continue;
    action.add(graph, head);
  }
  return action;
}

}  // namespace solsched::sched

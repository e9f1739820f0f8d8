#include "sched/lsa_inter.hpp"

#include <cmath>

#include "sched/sched_util.hpp"

namespace solsched::sched {

nvp::PeriodPlan LsaInterScheduler::begin_period(const nvp::PeriodContext&) {
  return {};
}

nvp::SlotAction lsa_slot_decision(const nvp::SlotContext& ctx,
                                  std::uint64_t enabled, double margin_slots) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const double dt = ctx.grid->dt_s;

  const NvpHeads heads(ctx, enabled);
  nvp::SlotAction action;
  const double max_load_w = ctx.supplyable_w();

  // Pass 1: forced starts (deadline pressure within the safety margin).
  for (std::size_t head : heads)
    if (latest_start_s(graph, state, head) <
            ctx.now_in_period_s + (1.0 + margin_slots) * dt &&
        action.load_w() + graph.task(head).power_w <= max_load_w)
      action.add(graph, head);

  // Pass 2: opportunistic starts.
  const double direct_budget_w = ctx.solar_w * ctx.pmu->config().direct_eta;
  for (std::size_t head : heads) {
    if (action.contains(head)) continue;
    const auto& t = graph.task(head);

    // (b) Free solar: present surplus covers the task's power.
    const bool solar_covers = action.load_w() + t.power_w <= direct_budget_w;

    // (c) WCMA says laziness won't pay: predicted harvest between now and
    // the deadline is below the remaining energy need, so waiting only adds
    // leakage — spend stored energy now.
    bool forecast_starved = false;
    if (!solar_covers) {
      const auto horizon = static_cast<std::size_t>(
          std::max(0.0, (t.deadline_s - ctx.now_in_period_s) / dt));
      const double predicted_j =
          ctx.predictor->predict_energy_j(horizon, dt) *
          ctx.pmu->config().direct_eta;
      const double need_j = state.remaining_s(head) * t.power_w;
      forecast_starved = predicted_j < need_j;
    }

    if ((solar_covers || forecast_starved) &&
        action.load_w() + t.power_w <= max_load_w)
      action.add(graph, head);
  }
  return action;
}

nvp::SlotAction LsaInterScheduler::decide_slot(const nvp::SlotContext& ctx) {
  return lsa_slot_decision(ctx, task::kEveryTask,
                           config_.margin_slots);
}

}  // namespace solsched::sched

#include "sched/lut_scheduler.hpp"

#include <cmath>
#include <stdexcept>

#include "sched/intra_task.hpp"
#include "sched/lsa_inter.hpp"

namespace solsched::sched {

LutScheduler::LutScheduler(std::shared_ptr<const Lut> lut,
                           std::vector<double> capacities_f,
                           std::size_t n_tasks, ProposedConfig config)
    : lut_(std::move(lut)),
      capacities_f_(std::move(capacities_f)),
      n_tasks_(n_tasks),
      config_(config) {
  if (!lut_ || lut_->empty())
    throw std::invalid_argument("LutScheduler: empty LUT");
  if (capacities_f_.empty())
    throw std::invalid_argument("LutScheduler: empty bank layout");
}

nvp::PeriodPlan LutScheduler::begin_period(const nvp::PeriodContext& ctx) {
  // Measured solar energy of the previous period.
  double solar_energy = 0.0;
  for (double p : ctx.last_period_solar_w)
    solar_energy += p * ctx.grid->dt_s;

  // Query each capacitor's best entry at its own voltage; remember the one
  // promising the lowest DMR (ties resolved by the LUT's distance metric).
  const LutEntry* best = nullptr;
  std::size_t best_cap = ctx.bank->selected_index();
  for (std::size_t h = 0; h < capacities_f_.size(); ++h) {
    const LutEntry* hit = lut_->lookup_best_dmr(
        solar_energy, capacities_f_[h], ctx.bank->at(h).voltage_v());
    if (hit && (!best || hit->key.dmr < best->key.dmr)) {
      best = hit;
      best_cap = h;
    }
  }
  if (!best) return {};

  te_mask_ = best->te.size() == n_tasks_ && !config_.ignore_te
                 ? task::te_mask(best->te)
                 : task::kEveryTask;

  nvp::PeriodPlan plan;
  const std::size_t current = ctx.bank->selected_index();
  if (best_cap != current &&
      ctx.bank->at(current).usable_energy_j() < config_.e_th_j)
    plan.select_cap = best_cap;  // Eq. 22 gate, as in the proposed policy.

  switch (config_.mode) {
    case ModeOverride::kAuto:
      intra_mode_ = std::fabs(1.0 - best->alpha) <= config_.delta;
      break;
    case ModeOverride::kInter: intra_mode_ = false; break;
    case ModeOverride::kIntra: intra_mode_ = true; break;
  }
  return plan;
}

nvp::SlotAction LutScheduler::decide_slot(const nvp::SlotContext& ctx) {
  const double budget_w = ctx.solar_w * ctx.pmu->config().direct_eta;
  if (intra_mode_)
    return IntraTaskScheduler::match_load(ctx, te_mask_, budget_w);
  return lsa_slot_decision(ctx, te_mask_, config_.margin_slots);
}

}  // namespace solsched::sched

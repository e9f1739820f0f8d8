// Adaptive duty-cycling baseline (Kansal-style power management).
//
// A third family from the related work: instead of matching instantaneous
// load to solar (intra-task) or lazily deferring whole tasks (LSA), the
// node sets a per-period *energy budget* from an EWMA of recent harvest
// plus a bounded withdrawal from storage, enables the most valuable task
// subset that fits the budget, and schedules those tasks EDF within the
// period. Period-scale adaptation, no slot-scale matching.
#pragma once

#include "nvp/scheduler.hpp"

namespace solsched::sched {

/// Tuning knobs.
struct DutyCycleConfig {
  double harvest_ewma = 0.3;     ///< Weight of the newest period's harvest.
  double storage_draw = 0.25;    ///< Fraction of stored energy spendable
                                 ///< per period on top of expected harvest.
  double direct_eta = 0.92;     ///< Assumed direct-channel efficiency.
};

/// Energy-budgeted duty-cycling policy.
class DutyCycleScheduler final : public nvp::Scheduler {
 public:
  explicit DutyCycleScheduler(DutyCycleConfig config = {})
      : config_(config) {}

  std::string name() const override { return "Duty-cycle"; }

  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& node,
                   const solar::SolarTrace& trace) override;
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override;

  /// The budget computed for the current period (J), for inspection.
  double current_budget_j() const noexcept { return budget_j_; }

 private:
  DutyCycleConfig config_;
  double harvest_estimate_j_ = 0.0;
  bool harvest_seen_ = false;
  double budget_j_ = 0.0;
  std::uint64_t enabled_mask_ = task::kEveryTask;  ///< Admitted te.
};

}  // namespace solsched::sched

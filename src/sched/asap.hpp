// As-soon-as-possible scheduler.
//
// Runs every ready task at the earliest opportunity with no energy
// awareness. The paper uses ASAP schedules to derive the energy-migration
// patterns that drive capacitor sizing (Sec. 4.1); it also serves as a
// simple baseline.
#pragma once

#include "nvp/scheduler.hpp"

namespace solsched::sched {

/// Greedy earliest-execution policy.
class AsapScheduler final : public nvp::Scheduler {
 public:
  /// If `only_live` is true, tasks whose deadline already passed are not
  /// scheduled (DMR-oriented); if false, every incomplete ready task runs
  /// (pure load shape, used for sizing).
  explicit AsapScheduler(bool only_live = true) : only_live_(only_live) {}

  std::string name() const override { return "ASAP"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override;

 private:
  bool only_live_;
};

}  // namespace solsched::sched

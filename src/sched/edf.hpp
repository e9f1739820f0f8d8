// Earliest-deadline-first scheduler (energy-oblivious classical baseline).
//
// Not part of the paper's comparison set, but a useful reference point: it
// shows how much of the DMR problem is energy-driven rather than
// ordering-driven.
#pragma once

#include "nvp/scheduler.hpp"

namespace solsched::sched {

/// Per-NVP EDF among live ready tasks.
class EdfScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "EDF"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override;
};

}  // namespace solsched::sched

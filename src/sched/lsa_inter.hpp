// Inter-task lazy scheduling baseline — the "up-to-date WCMA-based LSA" [3].
//
// The HOLLOWS-style policy maximizes energy utilization in the *current*
// period: a task starts when (a) its deadline forces it, (b) the present
// solar surplus can power it directly (free energy, no storage round trip),
// or (c) the WCMA forecast says waiting will not bring enough energy to
// finish it later, so stored energy must be spent now. It has no notion of
// tomorrow — exactly the single-period horizon the paper criticizes.
#pragma once

#include "nvp/scheduler.hpp"

namespace solsched::sched {

/// Tuning knobs of the baseline.
struct LsaConfig {
  /// Extra slots of safety margin before a start becomes forced.
  double margin_slots = 1.0;
};

/// Core LSA slot decision, reusable by the proposed scheduler's inter-task
/// mode: forced starts + free-solar starts + forecast-starved starts, over
/// tasks allowed by `enabled` (empty = all).
nvp::SlotAction lsa_slot_decision(const nvp::SlotContext& ctx,
                                  std::uint64_t enabled, double margin_slots);

/// WCMA-driven lazy (as-late-as-viable) inter-task scheduler.
class LsaInterScheduler final : public nvp::Scheduler {
 public:
  explicit LsaInterScheduler(LsaConfig config = {}) : config_(config) {}

  std::string name() const override { return "Inter-task"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override;

 private:
  LsaConfig config_;
};

}  // namespace solsched::sched

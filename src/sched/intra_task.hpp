// Intra-task fine-grained load-matching baseline [9].
//
// Designed for storage-less/converter-less nodes: every slot it picks the
// task combination whose total power best matches the instantaneous solar
// power (minimizing the mismatch that would be lost or need storage),
// forcing deadline-critical tasks in regardless. Like the inter-task
// baseline, its horizon is the current period only.
#pragma once

#include "nvp/scheduler.hpp"

namespace solsched::sched {

/// Per-slot exhaustive load matcher (one candidate per NVP, <= 2^6 combos).
class IntraTaskScheduler final : public nvp::Scheduler {
 public:
  std::string name() const override { return "Intra-task"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override;

  /// Load-matching core, shared with the proposed scheduler's intra mode:
  /// chooses among each NVP's head candidate to minimize |target_w - load|,
  /// always including forced tasks. Exposed for reuse and testing.
  /// `enabled` is a task mask.
  static nvp::SlotAction match_load(const nvp::SlotContext& ctx,
                                    std::uint64_t enabled, double target_w);
};

}  // namespace solsched::sched

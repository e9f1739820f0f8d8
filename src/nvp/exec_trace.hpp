// Slot-level execution tracing.
//
// RecordingScheduler decorates any policy and records which tasks ran in
// every slot (and which capacitor each period used); render_gantt() turns a
// window of that record into an ASCII chart — one row per task, one column
// per slot — used by the examples and handy when debugging policies.
#pragma once

#include <string>
#include <vector>

#include "nvp/scheduler.hpp"

namespace solsched::nvp {

/// Record of one simulated slot.
struct SlotRecord {
  std::vector<std::size_t> executed;  ///< Tasks chosen for the slot.
};

/// Transparent decorator that logs every decision of the wrapped policy.
class RecordingScheduler final : public Scheduler {
 public:
  /// Does not take ownership; `inner` must outlive the recorder.
  explicit RecordingScheduler(Scheduler& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }

  void begin_trace(const task::TaskGraph& graph, const NodeConfig& config,
                   const solar::SolarTrace& trace) override;
  PeriodPlan begin_period(const PeriodContext& ctx) override;
  SlotAction decide_slot(const SlotContext& ctx) override;

  /// One entry per simulated slot, in order.
  const std::vector<SlotRecord>& slots() const noexcept { return slots_; }

  /// Capacitor index selected in each period, in order.
  const std::vector<std::size_t>& period_caps() const noexcept {
    return period_caps_;
  }

 private:
  Scheduler* inner_;
  std::vector<SlotRecord> slots_;
  std::vector<std::size_t> period_caps_;
  std::size_t current_cap_ = 0;
};

/// Renders slots [begin, end) of a recording as an ASCII Gantt chart:
/// '#' = executing, '.' = idle. One row per task, one column per slot;
/// a '|' separator is inserted at period boundaries.
std::string render_gantt(const task::TaskGraph& graph,
                         const std::vector<SlotRecord>& slots,
                         std::size_t begin, std::size_t end,
                         std::size_t slots_per_period);

}  // namespace solsched::nvp

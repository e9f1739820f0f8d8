// Scheduler interface between the node simulator and scheduling policies.
//
// A policy is consulted twice per time scale:
//   * begin_period(): coarse-grained — may switch the selected capacitor and
//     restrict the task subset attempted this period (the paper's te vector);
//   * decide_slot(): fine-grained — picks the tasks to execute in the
//     coming slot (at most one per NVP, only ready tasks) as a SlotAction.
// The simulator validates every decision and throws on constraint
// violations, so a policy bug cannot silently corrupt an experiment.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nvp/node_config.hpp"
#include "solar/predictor.hpp"
#include "solar/solar_trace.hpp"
#include "storage/cap_bank.hpp"
#include "task/period_state.hpp"
#include "task/task_graph.hpp"

namespace solsched::nvp {

/// Read-only view handed to a policy at the start of each period.
struct PeriodContext {
  std::size_t day = 0;
  std::size_t period = 0;                       ///< Within the day.
  const solar::TimeGrid* grid = nullptr;
  const task::TaskGraph* graph = nullptr;
  const storage::CapacitorBank* bank = nullptr;
  solar::SolarPredictor* predictor = nullptr;   ///< Observed through last slot.
  double accumulated_dmr = 0.0;                 ///< DMR^acc so far (Eq. 19).
  std::vector<double> last_period_solar_w;      ///< Measured previous period.
};

/// Coarse-grained decision for one period.
struct PeriodPlan {
  /// Capacitor to select for this period (nullopt = keep current).
  std::optional<std::size_t> select_cap;
  /// te vector: tasks the policy intends to attempt this period. Empty means
  /// "all tasks". The simulator refuses slot decisions outside this set.
  std::vector<bool> tasks_enabled;
  /// Set by policies with a degraded mode (DESIGN.md §11): the primary
  /// decision procedure produced unusable output and a safe baseline plan was
  /// substituted. The simulator records it and emits a `fallback` event.
  bool used_fallback = false;
  /// Policy-specific reason code for the fallback (0 = none). The proposed
  /// scheduler uses sched::FallbackReason values.
  int fallback_code = 0;
};

/// One slot's decision: the chosen tasks as a bit set, the same ids in
/// decision order, and their summed power. A value type with no heap
/// storage, so building one per slot costs no allocation.
///
/// `load_w()` accumulates in `add()` call order: floating-point addition
/// is not associative, so the load of a task set depends on the order its
/// powers are added, and a policy fixes that order by deciding (DESIGN.md
/// §5) — an id-order sum would round differently. Policies read `load_w()`
/// as their committed load while deciding.
class SlotAction {
 public:
  /// Appends task `id`. Throws std::logic_error for an id outside `graph`
  /// (or beyond the 64-task bound) and for an id already chosen.
  void add(const task::TaskGraph& graph, std::size_t id) {
    if (id >= graph.size() || id >= 64)
      throw std::logic_error("scheduler chose an unknown task id");
    const std::uint64_t bit = std::uint64_t{1} << id;
    if (mask_ & bit) throw std::logic_error("scheduler chose a task twice");
    mask_ |= bit;
    ids_[count_++] = static_cast<std::uint8_t>(id);
    load_w_ += graph.task(id).power_w;
  }

  std::uint64_t mask() const noexcept { return mask_; }
  bool contains(std::size_t id) const noexcept {
    return id < 64 && ((mask_ >> id) & 1u);
  }
  bool empty() const noexcept { return count_ == 0; }
  double load_w() const noexcept { return load_w_; }

  /// The chosen ids in decision order.
  const std::uint8_t* begin() const noexcept { return ids_.data(); }
  const std::uint8_t* end() const noexcept { return ids_.data() + count_; }

 private:
  std::uint64_t mask_ = 0;
  double load_w_ = 0.0;
  std::array<std::uint8_t, 64> ids_{};
  std::uint8_t count_ = 0;
};

/// Read-only view handed to a policy before each slot.
struct SlotContext {
  std::size_t day = 0;
  std::size_t period = 0;
  std::size_t slot = 0;
  double now_in_period_s = 0.0;                 ///< Slot start time.
  double solar_w = 0.0;                         ///< Measured current power.
  const solar::TimeGrid* grid = nullptr;
  const task::TaskGraph* graph = nullptr;
  const task::PeriodState* state = nullptr;
  const storage::CapacitorBank* bank = nullptr;
  const storage::Pmu* pmu = nullptr;
  solar::SolarPredictor* predictor = nullptr;
  /// Energy the selected capacitor can deliver this slot (J), computed once
  /// per slot; the simulator hands the same value to Pmu::run_slot.
  double deliverable_j = 0.0;

  /// The PMU's supplyable load this slot (W): Pmu::supplyable_j over
  /// `solar_w` and `deliverable_j`, per second of the slot.
  double supplyable_w() const {
    return pmu->supplyable_j(solar_w, deliverable_j, grid->dt_s) / grid->dt_s;
  }
};

/// A scheduling policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Identifier used in reports ("Inter-task", "Proposed", ...).
  virtual std::string name() const = 0;

  /// Called once before a simulation. Offline policies (the static optimal
  /// upper bound) may read the whole trace here; online policies must
  /// ignore it and rely on the predictor.
  virtual void begin_trace(const task::TaskGraph& /*graph*/,
                           const NodeConfig& /*config*/,
                           const solar::SolarTrace& /*trace*/) {}

  /// Coarse-grained per-period decision.
  virtual PeriodPlan begin_period(const PeriodContext& ctx) = 0;

  /// Fine-grained per-slot decision: the tasks to execute next slot. This
  /// is what nvp::simulate calls. The default adds schedule_slot()'s list
  /// in order.
  virtual SlotAction decide_slot(const SlotContext& ctx);

  /// List form of decide_slot(), kept for wrappers written against it. The
  /// default expands decide_slot()'s action in decision order. A class
  /// must override one of the two; calling either on a class that
  /// overrides neither throws std::logic_error.
  virtual std::vector<std::size_t> schedule_slot(const SlotContext& ctx);

 private:
  /// Set while a default adapter runs, so one that finds the other default
  /// below it throws instead of recursing.
  bool in_adapter_ = false;
};

}  // namespace solsched::nvp

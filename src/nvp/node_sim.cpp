#include "nvp/node_sim.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace solsched::nvp {
namespace {

/// Appends the per-period event batch for `record` to `events`. Cheap fields
/// only; called once per period so it never touches the per-slot hot path.
void emit_period_events(obs::SimTrace& events, const PeriodRecord& record,
                        const storage::CapacitorBank& bank,
                        std::size_t prev_cap_index, bool cap_switched,
                        double bank_begin_j, double bank_end_j) {
  const auto day = static_cast<std::uint32_t>(record.day);
  const auto period = static_cast<std::uint32_t>(record.period);

  obs::SimEvent energy;
  energy.type = "period_energy";
  energy.day = day;
  energy.period = period;
  energy.fields = {{"solar_in_j", record.solar_in_j},
                   {"load_served_j", record.load_served_j},
                   {"stored_j", record.stored_j},
                   {"migrated_in_j", record.migrated_in_j},
                   {"cap_supplied_j", record.cap_supplied_j},
                   {"conversion_loss_j", record.conversion_loss_j},
                   {"leakage_loss_j", record.leakage_loss_j},
                   {"spilled_j", record.spilled_j}};
  events.emit(std::move(energy));

  // Bank totals at the period boundaries (taken after aging/kill, so the
  // §12 conservation audit closes over exactly the in-period flows).
  obs::SimEvent bank_e;
  bank_e.type = "bank_energy";
  bank_e.day = day;
  bank_e.period = period;
  bank_e.fields = {{"begin_j", bank_begin_j}, {"end_j", bank_end_j}};
  events.emit(std::move(bank_e));

  obs::SimEvent volts;
  volts.type = "cap_voltages";
  volts.day = day;
  volts.period = period;
  volts.fields.emplace_back("selected",
                            static_cast<double>(bank.selected_index()));
  const std::vector<double> v = bank.voltages();
  for (std::size_t i = 0; i < v.size(); ++i)
    volts.fields.emplace_back("v" + std::to_string(i), v[i]);
  events.emit(std::move(volts));

  obs::SimEvent deadline;
  deadline.type = "deadline";
  deadline.day = day;
  deadline.period = period;
  deadline.fields = {
      {"misses", static_cast<double>(record.misses)},
      {"completions", static_cast<double>(record.completions)},
      {"dmr", record.dmr},
      {"brownout_slots", static_cast<double>(record.brownout_slots)}};
  events.emit(std::move(deadline));

  if (cap_switched) {
    obs::SimEvent sw;
    sw.type = "cap_switch";
    sw.day = day;
    sw.period = period;
    sw.fields = {{"from", static_cast<double>(prev_cap_index)},
                 {"to", static_cast<double>(bank.selected_index())}};
    events.emit(std::move(sw));
  }

  if (record.migrated_in_j > 0.0 || record.cap_supplied_j > 0.0) {
    obs::SimEvent mig;
    mig.type = "migration";
    mig.day = day;
    mig.period = period;
    mig.fields = {{"migrated_in_j", record.migrated_in_j},
                  {"cap_supplied_j", record.cap_supplied_j}};
    events.emit(std::move(mig));
  }

  // Per-period fault totals. The inline power_failure/backup/restore events
  // mark outage *entries* only, so a blackout spanning period boundaries
  // would be invisible to a trace consumer in its later periods; this event
  // gives the §12 DMR attribution per-period visibility. Guarded on fault
  // activity so fault-free traces stay bit-identical to the pre-§12 format.
  if (record.power_failures > 0 || record.power_failure_slots > 0 ||
      record.backups > 0 || record.restores > 0 || record.fallbacks > 0 ||
      record.lost_progress_s > 0.0) {
    obs::SimEvent fl;
    fl.type = "fault_ledger";
    fl.day = day;
    fl.period = period;
    fl.fields = {{"pf_entries", static_cast<double>(record.power_failures)},
                 {"pf_slots", static_cast<double>(record.power_failure_slots)},
                 {"backups", static_cast<double>(record.backups)},
                 {"restores", static_cast<double>(record.restores)},
                 {"fallbacks", static_cast<double>(record.fallbacks)},
                 {"backup_j", record.backup_energy_j},
                 {"restore_j", record.restore_energy_j},
                 {"lost_progress_s", record.lost_progress_s}};
    events.emit(std::move(fl));
  }
}

/// Validates one slot decision against Eq. 7-9 and the period's te set.
/// Unknown and repeated ids were already refused by SlotAction::add.
void validate_decision(const SlotAction& action, const task::TaskGraph& graph,
                       const task::PeriodState& state,
                       std::uint64_t enabled_mask) {
  const std::uint64_t chosen = action.mask();
  if (chosen & ~enabled_mask)
    throw std::logic_error("scheduler chose a task outside its te set");
  const std::uint64_t done = state.completed_mask();
  if (chosen & done) throw std::logic_error("scheduler chose a completed task");
  for (std::uint64_t rest = chosen; rest != 0; rest &= rest - 1) {
    const auto id = static_cast<std::size_t>(std::countr_zero(rest));
    const std::uint64_t preds = graph.pred_mask(id);
    if ((done & preds) != preds)
      throw std::logic_error(
          "scheduler chose a task with incomplete dependencies");
    if (chosen & graph.nvp_mask(graph.task(id).nvp) & ~(std::uint64_t{1} << id))
      throw std::logic_error("scheduler put two tasks on one NVP");
  }
}

}  // namespace

SimResult simulate(const task::TaskGraph& graph,
                   const solar::SolarTrace& trace, Scheduler& policy,
                   const NodeConfig& config, solar::SolarPredictor& predictor,
                   obs::SimTrace* events, const fault::FaultInjector* faults) {
  config.validate();
  if (!graph.mask_capable())
    throw std::invalid_argument("simulate: task graph has " +
                                std::to_string(graph.size()) +
                                " tasks; the slot loop supports at most 64");
  const solar::TimeGrid& grid = trace.grid();
  // An attached-but-inactive plan must behave exactly like no plan at all,
  // so normalise it away up front: every fault branch below tests `fx`.
  const fault::FaultInjector* fx =
      (faults != nullptr && faults->active()) ? faults : nullptr;
  if (fx != nullptr && !(fx->grid() == grid))
    throw std::invalid_argument(
        "simulate: fault injector was built for a different time grid");

  storage::CapacitorBank bank = config.make_bank();
  const storage::Pmu pmu(config.pmu);
  task::PeriodState state(graph);

  policy.begin_trace(graph, config, trace);
  predictor.reset();

  SimResult result;
  result.periods.reserve(grid.total_periods());
  result.initial_bank_energy_j = bank.total_energy_j();

  double dmr_sum = 0.0;
  std::size_t periods_done = 0;
  std::vector<double> last_period_solar;
  // A blackout can span period and day boundaries; entry/exit bookkeeping
  // (backup / restore) must fire once per outage, not once per period.
  bool in_blackout = false;

  for (std::size_t day = 0; day < grid.n_days; ++day) {
    if (fx != nullptr && fx->has_aging()) {
      const double cap_factor = fx->capacity_factor(day);
      const double leak_factor = fx->leakage_factor(day);
      for (std::size_t h = 0; h < bank.size(); ++h)
        bank.at(h).degrade(cap_factor, leak_factor);
    }
    for (std::size_t period = 0; period < grid.n_periods; ++period) {
      state.reset();

      if (fx != nullptr) {
        const auto killed = fx->cap_killed_at(grid.flat_period(day, period));
        if (killed) bank.at(*killed % bank.size()).kill();
      }

      // Ledger anchor: bank energy after the boundary effects (aging, cell
      // death) but before any in-period flow, so E_begin + solar_in balances
      // against E_end plus the recorded outflows (DESIGN.md §12).
      const double bank_begin_j = bank.total_energy_j();

      PeriodContext pctx;
      pctx.day = day;
      pctx.period = period;
      pctx.grid = &grid;
      pctx.graph = &graph;
      pctx.bank = &bank;
      pctx.predictor = &predictor;
      pctx.accumulated_dmr =
          periods_done ? dmr_sum / static_cast<double>(periods_done) : 0.0;
      pctx.last_period_solar_w = last_period_solar;

      const std::size_t prev_cap_index = bank.selected_index();
      PeriodPlan plan = policy.begin_period(pctx);
      if (plan.select_cap) bank.select(*plan.select_cap);
      const bool cap_switched = bank.selected_index() != prev_cap_index;
      if (!plan.tasks_enabled.empty() &&
          plan.tasks_enabled.size() != graph.size())
        throw std::logic_error("period plan te vector has wrong size");
      const std::uint64_t enabled_mask = task::te_mask(plan.tasks_enabled);

      PeriodRecord record;
      record.day = day;
      record.period = period;
      record.cap_index = bank.selected_index();

      if (plan.used_fallback) {
        record.fallbacks = 1;
        if (events != nullptr) {
          obs::SimEvent fb;
          fb.type = "fallback";
          fb.day = static_cast<std::uint32_t>(day);
          fb.period = static_cast<std::uint32_t>(period);
          fb.fields = {{"code", static_cast<double>(plan.fallback_code)}};
          events->emit(std::move(fb));
        }
      }

      for (std::size_t slot = 0; slot < grid.n_slots; ++slot) {
        const double now_s = static_cast<double>(slot) * grid.dt_s;
        state.mark_deadlines(now_s);

        if (fx != nullptr && fx->blackout(grid.flat_slot(day, period, slot))) {
          // Power failure: supply and storage access are both cut. No
          // harvest, no scheduling; deadlines keep running and the bank
          // keeps leaking. On the way down the NVP checkpoints (backup
          // cost); the volatile baseline instead loses in-period progress.
          if (!in_blackout) {
            in_blackout = true;
            ++record.power_failures;
            if (events != nullptr) {
              obs::SimEvent pf;
              pf.type = "power_failure";
              pf.day = static_cast<std::uint32_t>(day);
              pf.period = static_cast<std::uint32_t>(period);
              pf.fields = {{"slot", static_cast<double>(slot)}};
              events->emit(std::move(pf));
            }
            if (config.volatile_baseline) {
              record.lost_progress_s += state.lose_progress();
            } else {
              const storage::DischargeResult d =
                  bank.selected().discharge(config.backup_energy_j);
              record.backup_energy_j += d.drawn_j;
              ++record.backups;
              if (events != nullptr) {
                obs::SimEvent bk;
                bk.type = "backup";
                bk.day = static_cast<std::uint32_t>(day);
                bk.period = static_cast<std::uint32_t>(period);
                bk.fields = {{"slot", static_cast<double>(slot)},
                             {"cost_j", d.drawn_j}};
                events->emit(std::move(bk));
              }
            }
          }
          ++record.power_failure_slots;
          record.leakage_loss_j += bank.apply_leakage_all(grid.dt_s);
          // Keep the predictor's slot alignment: the sensor reads nothing
          // while the node is dark.
          predictor.observe(0.0);
          continue;
        }

        if (in_blackout) {
          // First powered slot after an outage: the NVP replays its
          // checkpoint, the volatile baseline cold-reboots. Both pay.
          in_blackout = false;
          const storage::DischargeResult d =
              bank.selected().discharge(config.restore_energy_j);
          record.restore_energy_j += d.drawn_j;
          ++record.restores;
          if (events != nullptr) {
            obs::SimEvent rs;
            rs.type = "restore";
            rs.day = static_cast<std::uint32_t>(day);
            rs.period = static_cast<std::uint32_t>(period);
            rs.fields = {{"slot", static_cast<double>(slot)},
                         {"cost_j", d.drawn_j}};
            events->emit(std::move(rs));
          }
        }

        const double solar_w = trace.at(day, period, slot);
        // Sensor faults corrupt what the node *measures* (what the policy
        // and predictor see); the PMU harvests the physical power.
        const double measured_w =
            fx != nullptr
                ? fx->measured_solar_w(grid.flat_slot(day, period, slot),
                                       solar_w)
                : solar_w;

        SlotContext sctx;
        sctx.day = day;
        sctx.period = period;
        sctx.slot = slot;
        sctx.now_in_period_s = now_s;
        sctx.solar_w = measured_w;
        sctx.grid = &grid;
        sctx.graph = &graph;
        sctx.state = &state;
        sctx.bank = &bank;
        sctx.pmu = &pmu;
        sctx.predictor = &predictor;
        sctx.deliverable_j = bank.selected().deliverable_j();

        const SlotAction action = policy.decide_slot(sctx);
        validate_decision(action, graph, state, enabled_mask);

        const storage::SlotFlow flow = pmu.run_slot(
            solar_w, action.load_w(), sctx.deliverable_j, bank, grid.dt_s);
        if (!flow.brownout)
          for (std::size_t id : action) state.execute(id, grid.dt_s);
        else
          ++record.brownout_slots;

        record.solar_in_j += flow.solar_in_j;
        record.load_served_j += flow.direct_supplied_j + flow.cap_supplied_j;
        record.stored_j += flow.stored_j;
        record.migrated_in_j += flow.migrated_in_j;
        record.cap_supplied_j += flow.cap_supplied_j;
        record.conversion_loss_j += flow.conversion_loss_j;
        record.leakage_loss_j += flow.leakage_loss_j;
        record.spilled_j += flow.spilled_j;

        predictor.observe(measured_w);
      }

      // Final deadline evaluation at the period boundary (deadlines equal to
      // ΔT are checked at the beginning of the next slot, Eq. 5 note).
      state.mark_deadlines(grid.period_s());
      record.dmr = state.dmr();
      record.misses = state.miss_count();
      record.completions = state.completed_count();

      if (events != nullptr)
        emit_period_events(*events, record, bank, prev_cap_index, cap_switched,
                           bank_begin_j, bank.total_energy_j());

      // Workload metrics, once per period; the per-slot hot path stays
      // untouched. These counters are deterministic (no wall clock), so they
      // are part of the N-thread == 1-thread totals contract.
      OBS_COUNTER_ADD("nvp.sim.periods", 1);
      OBS_COUNTER_ADD("nvp.sim.slots", grid.n_slots);
      OBS_COUNTER_ADD("nvp.sim.deadline_misses", record.misses);
      OBS_COUNTER_ADD("nvp.sim.completions", record.completions);
      OBS_COUNTER_ADD("nvp.sim.brownout_slots", record.brownout_slots);
      // Integer-valued samples keep the histogram sum exact (and therefore
      // order-independent across thread counts); per-period DMR lives in
      // the event trace where full precision matters.
      OBS_HISTOGRAM_OBSERVE("nvp.sim.period_misses",
                            (std::vector<double>{0.0, 1.0, 2.0, 5.0, 10.0}),
                            record.misses);
      // Fault counters are guarded so fault-free runs leave the metrics
      // snapshot untouched (part of the bit-identical no-plan contract).
      if (record.power_failures > 0)
        OBS_COUNTER_ADD("nvp.sim.power_failures", record.power_failures);
      if (record.power_failure_slots > 0)
        OBS_COUNTER_ADD("nvp.sim.power_failure_slots",
                        record.power_failure_slots);
      if (record.backups > 0) OBS_COUNTER_ADD("nvp.sim.backups", record.backups);
      if (record.restores > 0)
        OBS_COUNTER_ADD("nvp.sim.restores", record.restores);
      if (record.fallbacks > 0)
        OBS_COUNTER_ADD("nvp.sim.fallbacks", record.fallbacks);

      dmr_sum += record.dmr;
      ++periods_done;
      last_period_solar = trace.period_powers(day, period);
      result.periods.push_back(record);
    }
  }
  result.final_bank_energy_j = bank.total_energy_j();
  return result;
}

SimResult simulate(const task::TaskGraph& graph,
                   const solar::SolarTrace& trace, Scheduler& policy,
                   const NodeConfig& config, obs::SimTrace* events,
                   const fault::FaultInjector* faults) {
  solar::WcmaPredictor predictor(trace.grid().slots_per_day());
  return simulate(graph, trace, policy, config, predictor, events, faults);
}

}  // namespace solsched::nvp

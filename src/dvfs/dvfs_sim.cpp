#include "dvfs/dvfs_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sched/sched_util.hpp"

namespace solsched::dvfs {

bool DvfsModel::valid() const noexcept {
  if (levels.empty()) return false;
  double prev = 0.0;
  for (double f : levels) {
    if (f <= prev || f > 1.0) return false;
    prev = f;
  }
  return dynamic_fraction >= 0.0 && dynamic_fraction <= 1.0;
}

namespace {

void validate_actions(const std::vector<DvfsAction>& actions,
                      const task::TaskGraph& graph,
                      const task::PeriodState& state, const DvfsModel& model) {
  std::vector<bool> nvp_busy(graph.nvp_count(), false);
  for (const auto& action : actions) {
    if (action.task >= graph.size())
      throw std::logic_error("dvfs policy chose an unknown task");
    bool level_ok = false;
    for (double f : model.levels)
      level_ok = level_ok || std::fabs(f - action.frequency) < 1e-9;
    if (!level_ok)
      throw std::logic_error("dvfs policy chose an invalid frequency");
    if (state.completed(action.task) || !state.ready(action.task))
      throw std::logic_error("dvfs policy chose an unready task");
    const std::size_t nvp = graph.task(action.task).nvp;
    if (nvp_busy[nvp])
      throw std::logic_error("dvfs policy put two tasks on one NVP");
    nvp_busy[nvp] = true;
  }
}

}  // namespace

nvp::SimResult simulate_dvfs(const task::TaskGraph& graph,
                             const solar::SolarTrace& trace,
                             DvfsScheduler& policy,
                             const nvp::NodeConfig& config,
                             const DvfsModel& model) {
  if (!model.valid())
    throw std::invalid_argument("simulate_dvfs: invalid DVFS model");

  const solar::TimeGrid& grid = trace.grid();
  storage::CapacitorBank bank = config.make_bank();
  const storage::Pmu pmu(config.pmu);
  task::PeriodState state(graph);

  nvp::SimResult result;
  result.periods.reserve(grid.total_periods());
  result.initial_bank_energy_j = bank.total_energy_j();

  for (std::size_t day = 0; day < grid.n_days; ++day) {
    for (std::size_t period = 0; period < grid.n_periods; ++period) {
      state.reset();
      nvp::PeriodRecord record;
      record.day = day;
      record.period = period;
      record.cap_index = bank.selected_index();

      for (std::size_t slot = 0; slot < grid.n_slots; ++slot) {
        const double now_s = static_cast<double>(slot) * grid.dt_s;
        state.mark_deadlines(now_s);

        DvfsSlotContext ctx;
        ctx.day = day;
        ctx.period = period;
        ctx.slot = slot;
        ctx.now_in_period_s = now_s;
        ctx.solar_w = trace.at(day, period, slot);
        ctx.grid = &grid;
        ctx.graph = &graph;
        ctx.state = &state;
        ctx.bank = &bank;
        ctx.pmu = &pmu;
        ctx.model = &model;

        const auto actions = policy.schedule_slot(ctx);
        validate_actions(actions, graph, state, model);

        double load_w = 0.0;
        for (const auto& a : actions)
          load_w += graph.task(a.task).power_w *
                    model.power_scale(a.frequency);

        const storage::SlotFlow flow =
            pmu.run_slot(ctx.solar_w, load_w, bank, grid.dt_s);
        if (!flow.brownout)
          for (const auto& a : actions)
            state.execute(a.task, a.frequency * grid.dt_s);
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
      }

      state.mark_deadlines(grid.period_s());
      record.dmr = state.dmr();
      record.misses = state.miss_count();
      record.completions = state.completed_count();
      result.periods.push_back(record);
    }
  }
  result.final_bank_energy_j = bank.total_energy_j();
  return result;
}

std::vector<DvfsAction> DvfsLoadMatcher::schedule_slot(
    const DvfsSlotContext& ctx) {
  const auto& graph = *ctx.graph;
  const auto& state = *ctx.state;
  const auto& model = *ctx.model;
  const double dt = ctx.grid->dt_s;
  const double target_w = ctx.solar_w * ctx.pmu->config().direct_eta;
  const double max_load_w =
      ctx.pmu->supplyable_j(ctx.solar_w, *ctx.bank, dt) / dt;

  const sched::NvpHeads by_nvp(
      graph, state,
      state.live_ready_mask(ctx.now_in_period_s));

  // Per NVP: the EDF head plus its feasible frequency options.
  struct Head {
    std::size_t task;
    double min_required_f;  ///< Lowest rate that can still meet the deadline.
    bool forced;            ///< Must run at >= min_required_f this slot.
  };
  std::vector<Head> heads;
  for (std::size_t id : by_nvp) {
    const auto& t = graph.task(id);
    const double time_left = t.deadline_s - ctx.now_in_period_s;
    const double remaining = state.remaining_s(id);
    // Work rate needed from now on to finish by the deadline.
    const double required =
        time_left > 0.0 ? remaining / time_left : 2.0;
    // Forced when even full speed leaves no slack beyond this slot.
    const bool forced = remaining > (time_left - dt) + 1e-9;
    heads.push_back({id, required, forced});
  }

  // Enumerate per-head options: off (frequency 0 marker) or any level that
  // keeps the deadline reachable; pick the combination whose scaled load
  // is closest to the solar target without exceeding the supplyable power.
  const std::size_t n = heads.size();
  std::vector<std::vector<double>> options(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!heads[i].forced) options[i].push_back(0.0);  // Off is allowed.
    for (double f : model.levels) {
      // Running below the required rate now only shrinks future slack;
      // allow it only when not forced (laziness), require >= when forced.
      if (heads[i].forced && f + 1e-9 < std::min(heads[i].min_required_f,
                                                 model.levels.back()))
        continue;
      options[i].push_back(f);
    }
    if (options[i].empty()) options[i].push_back(model.levels.back());
  }

  std::vector<std::size_t> pick(n, 0);
  std::vector<std::size_t> best_pick;
  double best_cost = std::numeric_limits<double>::max();
  // Odometer enumeration over option combinations (<= 4^6 + forced limits).
  while (true) {
    double load_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = options[i][pick[i]];
      if (f > 0.0)
        load_w += graph.task(heads[i].task).power_w * model.power_scale(f);
    }
    if (load_w <= max_load_w + 1e-12) {
      const double cost = std::fabs(target_w - load_w);
      if (cost < best_cost - 1e-12) {
        best_cost = cost;
        best_pick = pick;
      }
    }
    // Advance the odometer.
    std::size_t i = 0;
    for (; i < n; ++i) {
      if (++pick[i] < options[i].size()) break;
      pick[i] = 0;
    }
    if (i == n) break;
    if (n == 0) break;
  }

  std::vector<DvfsAction> actions;
  if (best_pick.empty()) return actions;  // Nothing feasible: idle slot.
  for (std::size_t i = 0; i < n; ++i) {
    const double f = options[i][best_pick[i]];
    if (f > 0.0) actions.push_back({heads[i].task, f});
  }
  return actions;
}

}  // namespace solsched::dvfs

#include "sched/sched_util.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace solsched::sched {
namespace {

/// The per-NVP candidate order: earliest deadline, then less remaining
/// work, then lower id — a total order over distinct tasks.
bool edf_before(const task::TaskGraph& graph, const task::PeriodState& state,
                std::size_t a, std::size_t b) {
  const auto& ta = graph.task(a);
  const auto& tb = graph.task(b);
  if (ta.deadline_s != tb.deadline_s) return ta.deadline_s < tb.deadline_s;
  if (state.remaining_s(a) != state.remaining_s(b))
    return state.remaining_s(a) < state.remaining_s(b);
  return a < b;
}

}  // namespace

NvpHeads::NvpHeads(const task::TaskGraph& graph,
                   const task::PeriodState& state, std::uint64_t candidates) {
  for (std::size_t k = 0; candidates != 0 && k < graph.nvp_count(); ++k) {
    std::uint64_t on_nvp = candidates & graph.nvp_mask(k);
    if (on_nvp == 0) continue;
    candidates &= ~on_nvp;
    auto head = static_cast<std::size_t>(std::countr_zero(on_nvp));
    for (on_nvp &= on_nvp - 1; on_nvp != 0; on_nvp &= on_nvp - 1) {
      const auto id = static_cast<std::size_t>(std::countr_zero(on_nvp));
      if (edf_before(graph, state, id, head)) head = id;
    }
    ids_[count_++] = static_cast<std::uint8_t>(head);
  }
}

void NvpHeads::sort_edf(const task::TaskGraph& graph,
                        const task::PeriodState& state) {
  // One head per NVP: insertion sort is the cheapest correct choice.
  for (std::size_t i = 1; i < count_; ++i) {
    const std::uint8_t v = ids_[i];
    std::size_t j = i;
    while (j > 0 && edf_before(graph, state, v, ids_[j - 1])) {
      ids_[j] = ids_[j - 1];
      --j;
    }
    ids_[j] = v;
  }
}

double latest_start_s(const task::TaskGraph& graph,
                      const task::PeriodState& state, std::size_t id) {
  return graph.task(id).deadline_s - state.remaining_s(id);
}

bool is_forced(const task::TaskGraph& graph, const task::PeriodState& state,
               std::size_t id, double now_s, double dt_s) {
  return latest_start_s(graph, state, id) < now_s + dt_s;
}

bool dependency_closed(const task::TaskGraph& graph,
                       const std::vector<bool>& subset) {
  for (std::size_t id = 0; id < graph.size(); ++id) {
    if (!subset[id]) continue;
    for (std::size_t p : graph.predecessors(id))
      if (!subset[p]) return false;
  }
  return true;
}

std::vector<std::vector<bool>> closed_subsets(const task::TaskGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<std::vector<bool>> out;
  const std::size_t total = std::size_t{1} << n;
  for (std::size_t mask = 0; mask < total; ++mask) {
    std::vector<bool> subset(n);
    for (std::size_t i = 0; i < n; ++i) subset[i] = (mask >> i) & 1u;
    if (dependency_closed(graph, subset)) out.push_back(std::move(subset));
  }
  return out;
}

std::uint64_t load_match_heads(std::span<const LoadMatchHead> heads,
                               double target_w, double max_load_w) {
  const std::size_t n = heads.size();
  if (n > 63)
    throw std::length_error("load_match_heads: more than 63 NVP heads");
  std::uint64_t forced = 0;
  double forced_w = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    if (heads[i].forced) {
      forced |= std::uint64_t{1} << i;
      forced_w += heads[i].power_w;
    }

  // Shed forced tasks latest-deadline-first if even they exceed the
  // supplyable power (a brownout would waste the whole slot).
  while (forced_w > max_load_w + 1e-12) {
    int victim = -1;
    double latest = -1.0;
    for (std::size_t i = 0; i < n; ++i)
      if (((forced >> i) & 1u) && heads[i].deadline_s > latest) {
        latest = heads[i].deadline_s;
        victim = static_cast<int>(i);
      }
    if (victim < 0) break;
    forced &= ~(std::uint64_t{1} << victim);
    forced_w -= heads[static_cast<std::size_t>(victim)].power_w;
    // The shed task stays a (non-forced) candidate for the subset search.
  }

  // Subset sweep over the *optional* heads only. Forced heads are in every
  // combination, so the full 2^n sweep visits each distinct chosen set 2^f
  // times; enumerating the 2^(n-f) optional subsets visits each set exactly
  // once, in its first-occurrence order of the full sweep — which is what
  // the "strictly better, else more tasks" selection rule keys on.
  std::array<std::size_t, 63> opt;  // First m entries used.
  std::size_t m = 0;
  double base_w = 0.0;
  int base_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((forced >> i) & 1u) {
      base_w += heads[i].power_w;
      ++base_count;
    } else {
      opt[m++] = i;
    }
  }
  std::uint64_t best_mask = 0;
  double best_cost = std::numeric_limits<double>::max();
  int best_count = -1;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    double load_w = base_w;
    int count = base_count;
    for (std::size_t b = 0; b < m; ++b) {
      if ((mask >> b) & 1u) {
        load_w += heads[opt[b]].power_w;
        ++count;
      }
    }
    if (load_w > max_load_w + 1e-12) continue;  // Would brown out.
    const double cost = std::fabs(target_w - load_w);
    if (cost < best_cost - 1e-12 ||
        (std::fabs(cost - best_cost) <= 1e-12 && count > best_count)) {
      best_cost = cost;
      best_count = count;
      best_mask = mask;
    }
  }

  std::uint64_t chosen = forced;
  for (std::size_t b = 0; b < m; ++b)
    if ((best_mask >> b) & 1u) chosen |= std::uint64_t{1} << opt[b];
  return chosen;
}

nvp::SlotAction load_match_decision(const task::TaskGraph& graph,
                                    const task::PeriodState& state,
                                    double now_s, double dt_s,
                                    std::uint64_t enabled, double target_w,
                                    std::uint64_t must_run,
                                    double max_load_w) {
  const NvpHeads by_nvp(graph, state, state.live_ready_mask(now_s) & enabled);
  std::array<LoadMatchHead, 64> heads;
  std::size_t n = 0;
  for (std::size_t id : by_nvp) {
    const task::Task& t = graph.task(id);
    heads[n++] = {id, t.power_w, t.deadline_s,
                  is_forced(graph, state, id, now_s, dt_s) ||
                      ((must_run >> id) & 1u)};
  }
  const std::uint64_t mask =
      load_match_heads(std::span(heads.data(), n), target_w, max_load_w);
  nvp::SlotAction action;
  for (std::size_t i = 0; i < n; ++i)
    if ((mask >> i) & 1u) action.add(graph, heads[i].id);
  return action;
}

std::vector<bool> admit_in_order(const task::TaskGraph& graph,
                                 const std::vector<std::size_t>& order,
                                 double budget_j) {
  std::vector<bool> enabled(graph.size(), false);
  double committed_j = 0.0;
  for (std::size_t id : order) {
    // Cost of this task plus any not-yet-enabled dependencies; `visited`
    // keeps shared predecessors from being counted twice.
    double extra = 0.0;
    std::vector<bool> visited(graph.size(), false);
    std::vector<std::size_t> closure{id};
    visited[id] = true;
    for (std::size_t i = 0; i < closure.size(); ++i) {
      const std::size_t t = closure[i];
      if (enabled[t]) continue;
      extra += graph.task(t).energy_j();
      for (std::size_t p : graph.predecessors(t)) {
        if (!enabled[p] && !visited[p]) {
          visited[p] = true;
          closure.push_back(p);
        }
      }
    }
    if (committed_j + extra <= budget_j) {
      for (std::size_t t : closure) enabled[t] = true;
      committed_j += extra;
    }
  }
  return enabled;
}

void scavenge_free_solar(const nvp::SlotContext& ctx, std::uint64_t off_te,
                         double budget_w, nvp::SlotAction& action) {
  const auto& graph = *ctx.graph;
  for (std::size_t head : NvpHeads(ctx, off_te)) {
    if (action.mask() & graph.nvp_mask(graph.task(head).nvp)) continue;
    if (action.load_w() + graph.task(head).power_w <= budget_w)
      action.add(graph, head);
  }
}

double alpha_index(const task::TaskGraph& graph,
                   const std::vector<bool>& subset,
                   const std::vector<double>& solar_slots_w, double dt_s) {
  double demand_j = 0.0;
  for (std::size_t id = 0; id < graph.size(); ++id)
    if (subset[id]) demand_j += graph.task(id).energy_j();
  double supply_j = 0.0;
  for (double p : solar_slots_w) supply_j += p * dt_s;
  return alpha_index(demand_j, supply_j);
}

double alpha_index(double demand_j, double supply_j) {
  if (supply_j <= 0.0) return demand_j > 0.0 ? 1e9 : 0.0;
  return demand_j / supply_j;
}

}  // namespace solsched::sched

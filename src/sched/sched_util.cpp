#include "sched/sched_util.hpp"

#include <array>
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

std::vector<std::vector<std::size_t>> candidates_by_nvp(
    const task::TaskGraph& graph, const task::PeriodState& state,
    double now_s, const std::vector<bool>& enabled) {
  std::vector<std::vector<std::size_t>> by_nvp(graph.nvp_count());
  for (std::size_t id : state.live_ready_tasks(now_s)) {
    if (!enabled.empty() && !enabled[id]) continue;
    by_nvp[graph.task(id).nvp].push_back(id);
  }
  // The buckets are tiny (one entry per live task of the NVP), making
  // insertion sort the cheapest correct choice.
  for (auto& list : by_nvp)
    for (std::size_t i = 1; i < list.size(); ++i) {
      const std::size_t v = list[i];
      std::size_t j = i;
      while (j > 0 && edf_before(graph, state, v, list[j - 1])) {
        list[j] = list[j - 1];
        --j;
      }
      list[j] = v;
    }
  return by_nvp;
}

double latest_start_s(const task::TaskGraph& graph,
                      const task::PeriodState& state, std::size_t id) {
  return graph.task(id).deadline_s - state.remaining_s(id);
}

bool is_forced(const task::TaskGraph& graph, const task::PeriodState& state,
               std::size_t id, double now_s, double dt_s) {
  return latest_start_s(graph, state, id) < now_s + dt_s;
}

double total_power_w(const task::TaskGraph& graph,
                     const std::vector<std::size_t>& chosen) {
  double acc = 0.0;
  for (std::size_t id : chosen) acc += graph.task(id).power_w;
  return acc;
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

std::vector<std::size_t> load_match_decision(
    const task::TaskGraph& graph, const task::PeriodState& state,
    double now_s, double dt_s, const std::vector<bool>& enabled,
    double target_w, const std::vector<bool>& must_run, double max_load_w) {
  // Each NVP's head: its first task in candidates_by_nvp's order.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> head_of(graph.nvp_count(), kNone);
  for (std::size_t id : state.live_ready_tasks(now_s)) {
    if (!enabled.empty() && !enabled[id]) continue;
    std::size_t& head = head_of[graph.task(id).nvp];
    if (head == kNone || edf_before(graph, state, id, head)) head = id;
  }
  std::vector<LoadMatchHead> heads;
  for (std::size_t id : head_of) {
    if (id == kNone) continue;
    const task::Task& t = graph.task(id);
    heads.push_back({id, t.power_w, t.deadline_s,
                     is_forced(graph, state, id, now_s, dt_s) ||
                         (!must_run.empty() && must_run[id])});
  }
  const std::uint64_t mask = load_match_heads(heads, target_w, max_load_w);
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < heads.size(); ++i)
    if ((mask >> i) & 1u) chosen.push_back(heads[i].id);
  return chosen;
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

#include "task/task_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace solsched::task {

TaskGraph::TaskGraph(std::string name, std::vector<Task> tasks,
                     std::vector<Edge> edges)
    : name_(std::move(name)),
      tasks_(std::move(tasks)),
      edges_(std::move(edges)) {
  const std::size_t n = tasks_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (tasks_[i].id != i)
      throw std::invalid_argument("TaskGraph: task ids must be 0..n-1 in order");
    if (tasks_[i].exec_s <= 0.0)
      throw std::invalid_argument("TaskGraph: exec time must be positive");
    if (tasks_[i].deadline_s < tasks_[i].exec_s)
      throw std::invalid_argument(
          "TaskGraph: deadline earlier than execution time");
    if (tasks_[i].power_w <= 0.0)
      throw std::invalid_argument("TaskGraph: power must be positive");
  }
  preds_.assign(n, {});
  succs_.assign(n, {});
  for (const auto& e : edges_) {
    if (e.from >= n || e.to >= n || e.from == e.to)
      throw std::invalid_argument("TaskGraph: bad edge endpoints");
    preds_[e.to].push_back(e.from);
    succs_[e.from].push_back(e.to);
  }

  // Kahn's algorithm: topological order + cycle detection.
  std::vector<std::size_t> in_degree(n, 0);
  for (std::size_t v = 0; v < n; ++v) in_degree[v] = preds_[v].size();
  std::vector<std::size_t> queue;
  for (std::size_t v = 0; v < n; ++v)
    if (in_degree[v] == 0) queue.push_back(v);
  topo_.reserve(n);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t v = queue[head];
    topo_.push_back(v);
    for (std::size_t s : succs_[v])
      if (--in_degree[s] == 0) queue.push_back(s);
  }
  if (topo_.size() != n)
    throw std::invalid_argument("TaskGraph: dependency cycle detected");

  for (const auto& t : tasks_) nvp_count_ = std::max(nvp_count_, t.nvp + 1);
  if (n == 0) nvp_count_ = 0;

  if (mask_capable()) {
    pred_masks_.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t p : preds_[v]) pred_masks_[v] |= std::uint64_t{1} << p;
    all_mask_ = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    nvp_masks_.assign(nvp_count_, 0);
    for (std::size_t v = 0; v < n; ++v)
      nvp_masks_[tasks_[v].nvp] |= std::uint64_t{1} << v;
  }
  deadline_order_.resize(n);
  for (std::size_t v = 0; v < n; ++v) deadline_order_[v] = v;
  std::sort(deadline_order_.begin(), deadline_order_.end(),
            [this](std::size_t a, std::size_t b) {
              if (tasks_[a].deadline_s != tasks_[b].deadline_s)
                return tasks_[a].deadline_s < tasks_[b].deadline_s;
              return a < b;
            });
}

std::uint64_t te_mask(const std::vector<bool>& te) {
  if (te.empty()) return kEveryTask;
  std::uint64_t mask = 0;
  for (std::size_t id = 0; id < te.size() && id < 64; ++id)
    if (te[id]) mask |= std::uint64_t{1} << id;
  return mask;
}

std::vector<std::size_t> TaskGraph::tasks_on_nvp(std::size_t nvp) const {
  std::vector<std::size_t> out;
  for (const auto& t : tasks_)
    if (t.nvp == nvp) out.push_back(t.id);
  return out;
}

double TaskGraph::total_energy_j() const noexcept {
  double acc = 0.0;
  for (const auto& t : tasks_) acc += t.energy_j();
  return acc;
}

double TaskGraph::total_exec_s() const noexcept {
  double acc = 0.0;
  for (const auto& t : tasks_) acc += t.exec_s;
  return acc;
}

double TaskGraph::peak_power_w() const {
  std::vector<double> per_nvp(nvp_count_, 0.0);
  for (const auto& t : tasks_)
    per_nvp[t.nvp] = std::max(per_nvp[t.nvp], t.power_w);
  double acc = 0.0;
  for (double p : per_nvp) acc += p;
  return acc;
}

}  // namespace solsched::task

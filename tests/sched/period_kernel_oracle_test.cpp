// PeriodOptimizer against the frozen per-subset evaluator
// (reference_period_eval.hpp): pareto_options and evaluate() must match it
// bit for bit — every double compared through std::bit_cast — over the
// paper benchmarks and 20 random graphs, four day kinds, four capacitor
// sizes, a start-voltage grid, and 1 and 4 pool threads.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "../test_helpers.hpp"
#include "obs/metrics.hpp"
#include "reference_period_eval.hpp"
#include "sched/period_optimizer.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

test::ReferenceNode reference_node() {
  test::ReferenceNode node;
  node.regulators = storage::RegulatorModel::fitted_default();
  node.leakage = storage::LeakageModel::fitted_default();
  return node;
}

PeriodOptimizer make_optimizer(const task::TaskGraph& graph,
                               const test::ReferenceNode& node) {
  return PeriodOptimizer(graph, node.pmu, node.regulators, node.leakage,
                         node.v_low, node.v_high, node.dt_s);
}

/// Period solar vectors (20 slots of 30 s): a morning, a noon and an
/// afternoon period of each of the four day kinds, plus the night period
/// they all share.
std::vector<std::vector<double>> period_solars() {
  const solar::TimeGrid grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 2024);
  std::vector<std::vector<double>> out;
  for (solar::DayKind kind :
       {solar::DayKind::kClear, solar::DayKind::kPartlyCloudy,
        solar::DayKind::kOvercast, solar::DayKind::kRainy}) {
    const solar::SolarTrace day = gen.generate_day(kind, grid);
    if (out.empty()) out.push_back(day.period_powers(0, 0));
    for (std::size_t p : {7u, 12u, 17u}) out.push_back(day.period_powers(0, p));
  }
  return out;
}

void expect_eval_identical(const PeriodEval& got, const PeriodEval& want,
                           const std::string& where) {
  EXPECT_EQ(got.te_completed, want.te_completed) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(bits(got.dmr), bits(want.dmr)) << where;
  EXPECT_EQ(bits(got.consumed_cap_j), bits(want.consumed_cap_j)) << where;
  EXPECT_EQ(bits(got.final_usable_j), bits(want.final_usable_j)) << where;
  EXPECT_EQ(bits(got.final_voltage_v), bits(want.final_voltage_v)) << where;
  EXPECT_EQ(bits(got.alpha), bits(want.alpha)) << where;
  EXPECT_EQ(bits(got.migrated_in_j), bits(want.migrated_in_j)) << where;
  EXPECT_EQ(bits(got.cap_supplied_j), bits(want.cap_supplied_j)) << where;
  EXPECT_EQ(got.slots, want.slots) << where;
}

void expect_options_identical(const std::vector<PeriodOption>& got,
                              const std::vector<PeriodOption>& want,
                              const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].misses, want[i].misses) << where << " option " << i;
    EXPECT_EQ(bits(got[i].consumed_cap_j), bits(want[i].consumed_cap_j))
        << where << " option " << i;
    EXPECT_EQ(bits(got[i].final_usable_j), bits(want[i].final_usable_j))
        << where << " option " << i;
    EXPECT_EQ(bits(got[i].final_voltage_v), bits(want[i].final_voltage_v))
        << where << " option " << i;
    EXPECT_EQ(bits(got[i].alpha), bits(want[i].alpha))
        << where << " option " << i;
    EXPECT_EQ(got[i].te, want[i].te) << where << " option " << i;
  }
}

/// Every (period solar, capacity, v0) cell: the reference frontier and
/// per-subset evaluations, then pareto_options at 1 and 4 threads and
/// evaluate() on every closed subset.
void check_graph(const task::TaskGraph& graph,
                 const std::vector<double>& v0s) {
  struct RestorePool {
    ~RestorePool() {
      util::ThreadPool::set_global_threads(
          util::ThreadPool::thread_count_from_env());
    }
  } restore;
  const test::ReferenceNode node = reference_node();
  const PeriodOptimizer opt = make_optimizer(graph, node);
  const auto subsets = test::reference_closed_subsets(graph);
  const auto solars = period_solars();
  for (std::size_t s = 0; s < solars.size(); ++s)
    for (double capacity_f : {1.0, 10.0, 50.0, 100.0})
      for (double v0 : v0s) {
        const std::string where = graph.name() + " solar " +
                                  std::to_string(s) + " C " +
                                  std::to_string(capacity_f) + " v0 " +
                                  std::to_string(v0);
        std::vector<PeriodEval> evals;
        const auto want = test::reference_pareto(graph, node, solars[s],
                                                 capacity_f, v0, &evals);
        for (std::size_t threads : {1u, 4u}) {
          util::ThreadPool::set_global_threads(threads);
          expect_options_identical(
              opt.pareto_options(solars[s], capacity_f, v0), want,
              where + " threads " + std::to_string(threads));
        }
        ASSERT_EQ(evals.size(), subsets.size());
        for (std::size_t i = 0; i < subsets.size(); ++i)
          expect_eval_identical(
              opt.evaluate(subsets[i], solars[s], capacity_f, v0), evals[i],
              where + " subset " + std::to_string(i));
        // The empty mask means "every task".
        expect_eval_identical(
            opt.evaluate({}, solars[s], capacity_f, v0),
            test::reference_evaluate(graph, node, {}, solars[s], capacity_f,
                                     v0),
            where + " all tasks");
        if (::testing::Test::HasFailure()) return;
      }
}

TEST(PeriodKernelOracle, PaperBenchmarksMatchFrozenEvaluator) {
  for (const task::TaskGraph& graph :
       {task::wam_benchmark(), task::ecg_benchmark(), task::shm_benchmark()})
    check_graph(graph, {0.5, 1.1, 2.3, 3.7, 5.0});
}

/// Twenty random graphs (4-8 tasks, up to 256 closed subsets each), five
/// per test so ctest can run the quarters side by side.
void check_random_graphs(std::uint64_t first_seed) {
  for (std::uint64_t seed = first_seed; seed < first_seed + 5; ++seed)
    check_graph(
        task::random_benchmark(seed * 7919, "rand" + std::to_string(seed)),
        {0.5, 2.3, 5.0});
}

TEST(PeriodKernelOracle, RandomGraphs1To5MatchFrozenEvaluator) {
  check_random_graphs(1);
}
TEST(PeriodKernelOracle, RandomGraphs6To10MatchFrozenEvaluator) {
  check_random_graphs(6);
}
TEST(PeriodKernelOracle, RandomGraphs11To15MatchFrozenEvaluator) {
  check_random_graphs(11);
}
TEST(PeriodKernelOracle, RandomGraphs16To20MatchFrozenEvaluator) {
  check_random_graphs(16);
}

TEST(PeriodKernel, SlotStepsCountSharedSlotsOnly) {
  // sched.pareto.slot_steps counts the slots the prefix tree simulated:
  // at least one full path, never more than a replay of every subset.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const test::ReferenceNode node = reference_node();
  for (const task::TaskGraph& graph :
       {task::wam_benchmark(), task::ecg_benchmark(), task::shm_benchmark()}) {
    const PeriodOptimizer opt = make_optimizer(graph, node);
    for (const std::vector<double>& solar : period_solars()) {
      obs::MetricsRegistry::global().reset();
      opt.pareto_options(solar, 10.0, 2.3);
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::global().snapshot();
      const std::uint64_t subsets =
          snap.counter_or("sched.pareto.subset_evals");
      const std::uint64_t steps = snap.counter_or("sched.pareto.slot_steps");
      EXPECT_EQ(subsets, test::reference_closed_subsets(graph).size());
      EXPECT_GE(steps, solar.size()) << graph.name();
      EXPECT_LT(steps, subsets * solar.size()) << graph.name();
    }
  }
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace solsched::sched

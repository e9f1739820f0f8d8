#include "sched/period_optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {
namespace {

PeriodOptimizer make_optimizer(const task::TaskGraph& graph) {
  return PeriodOptimizer(graph, storage::PmuConfig{},
                         storage::RegulatorModel::analytic_default(),
                         storage::LeakageModel{}, 0.5, 5.0, 30.0);
}

TEST(PeriodOptimizer, AbundantSolarCompletesAll) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.2);
  const PeriodEval eval = opt.evaluate({}, solar, 10.0, 0.5);
  EXPECT_TRUE(eval.te_completed);
  EXPECT_EQ(eval.misses, 0u);
  EXPECT_DOUBLE_EQ(eval.dmr, 0.0);
}

TEST(PeriodOptimizer, DarknessEmptyCapMissesAll) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.0);
  const PeriodEval eval = opt.evaluate({}, solar, 10.0, 0.5);
  EXPECT_EQ(eval.misses, 3u);
  EXPECT_FALSE(eval.te_completed);
}

TEST(PeriodOptimizer, StoredEnergyRescuesNight) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.0);
  // 10 F at 3 V: 0.5*10*(9-0.25) ~ 43 J usable — plenty for 3.45 J demand.
  const PeriodEval eval = opt.evaluate({}, solar, 10.0, 3.0);
  EXPECT_EQ(eval.misses, 0u);
  EXPECT_GT(eval.consumed_cap_j, 0.0);  // Net consumption from storage.
}

TEST(PeriodOptimizer, SubsetRestrictsExecution) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.2);
  const PeriodEval eval =
      opt.evaluate({true, false, true}, solar, 10.0, 0.5);
  EXPECT_TRUE(eval.te_completed);
  EXPECT_EQ(eval.misses, 1u);  // Task 1 excluded -> misses.
}

TEST(PeriodOptimizer, SurplusChargesCapNegativeConsumption) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.2);  // Far more than the load.
  const PeriodEval eval = opt.evaluate({}, solar, 10.0, 1.0);
  EXPECT_LT(eval.consumed_cap_j, 0.0);  // Eq. 15 value can be negative.
  EXPECT_GT(eval.final_usable_j, 0.0);
}

TEST(PeriodOptimizer, AlphaMatchesDefinition) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.0115);
  const PeriodEval eval = opt.evaluate({}, solar, 10.0, 0.5);
  EXPECT_NEAR(eval.alpha, 3.45 / (0.0115 * 300.0), 1e-9);
}

TEST(PeriodOptimizer, ParetoAscendingMissesDescendingValue) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  // Dim solar: some subsets complete, others don't.
  const std::vector<double> solar(10, 0.02);
  const auto options = opt.pareto_options(solar, 10.0, 1.2);
  ASSERT_FALSE(options.empty());
  for (std::size_t i = 1; i < options.size(); ++i) {
    EXPECT_LT(options[i - 1].misses, options[i].misses);
    // Fewer misses can never be cheaper than more misses on the frontier
    // (otherwise the higher-miss option would be dominated and useless) —
    // but equal cost is possible, so only assert weak monotonicity.
    EXPECT_GE(options[i - 1].consumed_cap_j,
              options[i].consumed_cap_j - 1e-9);
  }
}

TEST(PeriodOptimizer, ParetoContainsZeroMissWhenFeasible) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.2);
  const auto options = opt.pareto_options(solar, 10.0, 2.0);
  ASSERT_FALSE(options.empty());
  EXPECT_EQ(options.front().misses, 0u);
}

TEST(PeriodOptimizer, ParetoEmptySubsetAlwaysPresent) {
  const auto graph = test::indep3();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.0);
  const auto options = opt.pareto_options(solar, 10.0, 0.5);
  // With no energy at all, the only achievable point is all-miss.
  ASSERT_EQ(options.size(), 1u);
  EXPECT_EQ(options.front().misses, 3u);
}

TEST(PeriodOptimizer, DependencyChainScheduledInOrder) {
  const auto graph = test::chain2();
  const auto opt = make_optimizer(graph);
  const std::vector<double> solar(10, 0.2);
  const PeriodEval eval = opt.evaluate({}, solar, 10.0, 0.5);
  EXPECT_TRUE(eval.te_completed);
  // Find first slot containing task 1; task 0 must have completed earlier.
  std::size_t first1 = solar.size();
  double exec0 = 0.0;
  for (std::size_t m = 0; m < eval.slots.size(); ++m) {
    for (std::size_t id : eval.slots[m]) {
      if (id == 0) exec0 += 30.0;
      if (id == 1 && first1 == solar.size()) {
        first1 = m;
        EXPECT_GE(exec0, 60.0);  // Task 0 fully done (Eq. 7).
      }
    }
  }
  EXPECT_LT(first1, solar.size());
}

// pareto_options is the prefix-sharing sweep over all subsets at once. Its
// contract is that it selects exactly what a serial loop over evaluate()
// (the same kernel on one subset) selects: for each miss count, the
// smallest E^c (within 1e-12), ties to the higher final usable energy,
// remaining ties to the earliest subset. The reference below enumerates the
// dependency-closed subsets itself, in ascending mask order, and must match
// bit for bit at 1 and 4 threads. Both sides against a frozen evaluator that
// shares no code with the kernel: period_kernel_oracle_test.cpp.
std::vector<PeriodOption> serial_reference(const PeriodOptimizer& opt,
                                           const std::vector<double>& solar,
                                           double capacity_f, double v0) {
  const task::TaskGraph& graph = opt.graph();
  const std::size_t n = graph.size();
  std::vector<PeriodOption> best(n + 1);
  std::vector<bool> seen(n + 1, false);
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<bool> te(n);
    for (std::size_t i = 0; i < n; ++i) te[i] = (mask >> i) & 1u;
    bool closed = true;
    for (const task::Edge& e : graph.edges())
      if (te[e.to] && !te[e.from]) closed = false;
    if (!closed) continue;
    const PeriodEval eval = opt.evaluate(te, solar, capacity_f, v0);
    const std::size_t k = eval.misses;
    const bool better =
        !seen[k] || eval.consumed_cap_j < best[k].consumed_cap_j - 1e-12 ||
        (std::fabs(eval.consumed_cap_j - best[k].consumed_cap_j) <= 1e-12 &&
         eval.final_usable_j > best[k].final_usable_j);
    if (!better) continue;
    seen[k] = true;
    best[k] = PeriodOption{k,
                           eval.consumed_cap_j,
                           eval.final_usable_j,
                           eval.final_voltage_v,
                           eval.alpha,
                           static_cast<std::uint64_t>(mask)};
  }
  std::vector<PeriodOption> out;
  for (std::size_t k = 0; k <= n; ++k)
    if (seen[k]) out.push_back(best[k]);
  return out;
}

TEST(PeriodOptimizer, ParetoEqualsSerialEvaluateReductionAtAnyThreadCount) {
  // Fork-join plus an independent task: 0 -> {1, 2}, 3 free.
  const task::TaskGraph graph(
      "fork4",
      {{0, "root", 150.0, 60.0, 0.020, 0},
       {1, "left", 240.0, 60.0, 0.015, 0},
       {2, "right", 300.0, 90.0, 0.010, 1},
       {3, "free", 300.0, 30.0, 0.025, 1}},
      {{0, 1}, {0, 2}});
  const auto opt = make_optimizer(graph);
  std::vector<double> ramp(10);
  for (std::size_t m = 0; m < ramp.size(); ++m)
    ramp[m] = 0.004 * static_cast<double>(m);
  const std::vector<std::vector<double>> solars = {
      std::vector<double>(10, 0.0), std::vector<double>(10, 0.02), ramp,
      std::vector<double>(10, 0.2)};

  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    for (const auto& solar : solars)
      for (double v0 : {0.5, 1.2, 3.0}) {
        const auto expect = serial_reference(opt, solar, 10.0, v0);
        const auto got = opt.pareto_options(solar, 10.0, v0);
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].misses, expect[i].misses);
          EXPECT_EQ(got[i].consumed_cap_j, expect[i].consumed_cap_j);
          EXPECT_EQ(got[i].final_usable_j, expect[i].final_usable_j);
          EXPECT_EQ(got[i].final_voltage_v, expect[i].final_voltage_v);
          EXPECT_EQ(got[i].alpha, expect[i].alpha);
          EXPECT_EQ(got[i].te, expect[i].te);
        }
      }
  }
  util::ThreadPool::set_global_threads(
      util::ThreadPool::thread_count_from_env());
}

}  // namespace
}  // namespace solsched::sched

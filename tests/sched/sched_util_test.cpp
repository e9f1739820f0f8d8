#include "sched/sched_util.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "task/benchmarks.hpp"

namespace solsched::sched {
namespace {

TEST(CandidatesByNvp, SortsEdfPerNvp) {
  const auto graph = test::indep3();  // NVP0: {0 (D150), 2 (D300)}, NVP1: {1}.
  task::PeriodState state(graph);
  const auto by_nvp = candidates_by_nvp(graph, state, 0.0, {});
  ASSERT_EQ(by_nvp.size(), 2u);
  ASSERT_EQ(by_nvp[0].size(), 2u);
  EXPECT_EQ(by_nvp[0][0], 0u);  // Earlier deadline first.
  EXPECT_EQ(by_nvp[0][1], 2u);
  EXPECT_EQ(by_nvp[1], (std::vector<std::size_t>{1}));
}

TEST(CandidatesByNvp, RespectsEnabledMask) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  const auto by_nvp =
      candidates_by_nvp(graph, state, 0.0, {false, true, true});
  EXPECT_EQ(by_nvp[0], (std::vector<std::size_t>{2}));
}

TEST(CandidatesByNvp, ExcludesBlockedDependents) {
  const auto graph = test::chain2();
  task::PeriodState state(graph);
  const auto by_nvp = candidates_by_nvp(graph, state, 0.0, {});
  EXPECT_EQ(by_nvp[0], (std::vector<std::size_t>{0}));
}

TEST(LatestStart, DeadlineMinusRemaining) {
  const auto graph = test::chain2();
  task::PeriodState state(graph);
  EXPECT_DOUBLE_EQ(latest_start_s(graph, state, 0), 120.0 - 60.0);
  state.execute(0, 30.0);
  EXPECT_DOUBLE_EQ(latest_start_s(graph, state, 0), 120.0 - 30.0);
}

TEST(IsForced, TriggersNearSlack) {
  const auto graph = test::chain2();  // Task 0: D=120, S=60.
  task::PeriodState state(graph);
  EXPECT_FALSE(is_forced(graph, state, 0, 0.0, 30.0));
  EXPECT_TRUE(is_forced(graph, state, 0, 60.0, 30.0));
  EXPECT_TRUE(is_forced(graph, state, 0, 31.0, 30.0));
}

TEST(TotalPower, Sums) {
  const auto graph = test::indep3();
  EXPECT_NEAR(total_power_w(graph, {0, 1}), 0.04, 1e-12);
  EXPECT_DOUBLE_EQ(total_power_w(graph, {}), 0.0);
}

TEST(DependencyClosed, Checks) {
  const auto graph = test::chain2();
  EXPECT_TRUE(dependency_closed(graph, {true, true}));
  EXPECT_TRUE(dependency_closed(graph, {true, false}));
  EXPECT_FALSE(dependency_closed(graph, {false, true}));
  EXPECT_TRUE(dependency_closed(graph, {false, false}));
}

TEST(ClosedSubsets, ChainCount) {
  // A 2-chain has 3 closed subsets: {}, {0}, {0,1}.
  EXPECT_EQ(closed_subsets(test::chain2()).size(), 3u);
  // Three independent tasks: all 8 subsets.
  EXPECT_EQ(closed_subsets(test::indep3()).size(), 8u);
}

TEST(ClosedSubsets, WamFarFewerThan256) {
  const auto subsets = closed_subsets(task::wam_benchmark());
  EXPECT_LT(subsets.size(), 100u);
  EXPECT_GT(subsets.size(), 8u);
  for (const auto& s : subsets)
    EXPECT_TRUE(dependency_closed(task::wam_benchmark(), s));
}

TEST(AlphaIndex, RatioOfDemandToSupply) {
  const auto graph = test::indep3();
  // Demand: all three tasks = 60*0.015 + 90*0.025 + 30*0.010 = 3.45 J.
  const std::vector<double> solar(10, 0.0115);  // 10 slots x 30 s x 11.5 mW.
  const double alpha =
      alpha_index(graph, {true, true, true}, solar, 30.0);
  EXPECT_NEAR(alpha, 3.45 / (0.0115 * 300.0), 1e-9);
}

TEST(AlphaIndex, NoSolarSentinel) {
  const auto graph = test::indep3();
  const std::vector<double> dark(10, 0.0);
  EXPECT_GT(alpha_index(graph, {true, false, false}, dark, 30.0), 1e8);
  EXPECT_DOUBLE_EQ(alpha_index(graph, {false, false, false}, dark, 30.0),
                   0.0);
}

TEST(LoadMatch, PicksClosestCombination) {
  const auto graph = test::indep3();  // Powers 15, 25, 10 mW.
  task::PeriodState state(graph);
  // Target 25 mW: best single-head-per-NVP combo is {0, 2} (=25) or {1}.
  const auto chosen =
      load_match_decision(graph, state, 0.0, 30.0, {}, 0.025);
  double load = 0.0;
  for (auto id : chosen) load += graph.task(id).power_w;
  EXPECT_NEAR(load, 0.025, 1e-9);
}

TEST(LoadMatch, ZeroTargetRunsNothingWhenNoPressure) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  const auto chosen = load_match_decision(graph, state, 0.0, 30.0, {}, 0.0);
  EXPECT_TRUE(chosen.empty());
}

TEST(LoadMatch, ForcedTasksAlwaysIncluded) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  // At t=90 task 0 (D150, S60) is forced even with zero target.
  const auto chosen = load_match_decision(graph, state, 90.0, 30.0, {}, 0.0);
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 0u), 1);
}

TEST(LoadMatch, MustRunForcesTask) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  const auto chosen = load_match_decision(graph, state, 0.0, 30.0, {}, 0.0,
                                          {false, true, false});
  EXPECT_EQ(chosen, (std::vector<std::size_t>{1}));
}

TEST(LoadMatch, MaxLoadShedsForced) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  // Force all three but allow only 20 mW: the latest-deadline forced tasks
  // are shed until the set fits.
  const auto chosen = load_match_decision(graph, state, 0.0, 30.0, {}, 1.0,
                                          {true, true, true}, 0.020);
  double load = 0.0;
  for (auto id : chosen) load += graph.task(id).power_w;
  EXPECT_LE(load, 0.020 + 1e-9);
  EXPECT_FALSE(chosen.empty());
}

TEST(LoadMatch, InfeasibleCombosSkipped) {
  const auto graph = test::indep3();
  task::PeriodState state(graph);
  // Huge target but max load tiny: only combos under the cap are eligible.
  const auto chosen =
      load_match_decision(graph, state, 0.0, 30.0, {}, 1.0, {}, 0.012);
  double load = 0.0;
  for (auto id : chosen) load += graph.task(id).power_w;
  EXPECT_LE(load, 0.012 + 1e-9);
}

TEST(LoadMatch, EqualCostTieKeepsFirstCombination) {
  // Two optional heads of equal power, either alone matching the target
  // exactly: same cost, same task count, so the first combination the
  // sweep visits (head 0 alone) wins.
  const std::vector<LoadMatchHead> heads = {{4, 0.02, 300.0, false},
                                            {7, 0.02, 300.0, false}};
  EXPECT_EQ(load_match_heads(heads, 0.02, 1.0), 0b01u);
  // A forced head always runs; the optional one joins when it fits.
  const std::vector<LoadMatchHead> forced = {{4, 0.02, 300.0, true},
                                             {7, 0.02, 300.0, false}};
  EXPECT_EQ(load_match_heads(forced, 0.04, 1.0), 0b11u);
  EXPECT_EQ(load_match_heads(forced, 0.04, 0.03), 0b01u);
}

}  // namespace
}  // namespace solsched::sched

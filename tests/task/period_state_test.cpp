#include "task/period_state.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_helpers.hpp"

namespace solsched::task {
namespace {

TEST(PeriodState, FreshStateFull) {
  const TaskGraph g = test::chain2();
  const PeriodState s(g);
  EXPECT_DOUBLE_EQ(s.remaining_s(0), 60.0);
  EXPECT_DOUBLE_EQ(s.remaining_s(1), 60.0);
  EXPECT_FALSE(s.completed(0));
  EXPECT_EQ(s.miss_count(), 0u);
  EXPECT_EQ(s.completed_count(), 0u);
}

TEST(PeriodState, DependencyGatesReadiness) {
  const TaskGraph g = test::chain2();
  PeriodState s(g);
  EXPECT_TRUE(s.ready(0));
  EXPECT_FALSE(s.ready(1));  // Depends on 0 (Eq. 7).
  s.execute(0, 60.0);
  EXPECT_TRUE(s.completed(0));
  EXPECT_FALSE(s.ready(0));  // Completed tasks are not ready.
  EXPECT_TRUE(s.ready(1));
}

TEST(PeriodState, ExecuteClampsAtZero) {
  const TaskGraph g = test::chain2();
  PeriodState s(g);
  s.execute(0, 1000.0);
  EXPECT_DOUBLE_EQ(s.remaining_s(0), 0.0);
}

TEST(PeriodState, DeadlineMissSticky) {
  const TaskGraph g = test::chain2();  // Deadlines 120 and 300.
  PeriodState s(g);
  s.mark_deadlines(120.0);
  EXPECT_TRUE(s.missed(0));
  EXPECT_FALSE(s.missed(1));
  // Completing after the miss does not clear it.
  s.execute(0, 60.0);
  s.mark_deadlines(130.0);
  EXPECT_TRUE(s.missed(0));
  EXPECT_EQ(s.miss_count(), 1u);
}

TEST(PeriodState, CompletionBeforeDeadlineIsNotMiss) {
  const TaskGraph g = test::chain2();
  PeriodState s(g);
  s.execute(0, 60.0);
  s.mark_deadlines(120.0);
  EXPECT_FALSE(s.missed(0));
}

TEST(PeriodState, LiveReadyExcludesMissedAndPastDeadline) {
  const TaskGraph g = test::indep3();  // Deadlines 150, 300, 300.
  PeriodState s(g);
  EXPECT_EQ(s.live_ready_mask(0.0), 0b111u);
  s.mark_deadlines(150.0);  // Task 0 missed.
  EXPECT_EQ(s.missed_mask(), 0b001u);
  EXPECT_EQ(s.live_ready_mask(150.0), 0b110u);
}

TEST(PeriodState, MasksTrackCompletionAndReadiness) {
  const TaskGraph g = test::chain2();  // t0 -> t1.
  PeriodState s(g);
  EXPECT_EQ(s.live_ready_mask(0.0), 0b01u);  // t1 waits on t0.
  s.execute(0, 60.0);
  EXPECT_EQ(s.completed_mask(), 0b01u);
  EXPECT_EQ(s.live_ready_mask(60.0), 0b10u);
  EXPECT_EQ(s.live_ready_mask(300.0), 0u);  // t1's deadline has passed.
}

TEST(PeriodState, RejectsMoreThan64Tasks) {
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < 65; ++i)
    tasks.push_back({i, "t", 300.0, 30.0, 0.01, 0});
  const TaskGraph g("wide", std::move(tasks), {});
  try {
    PeriodState s(g);
    FAIL() << "a 65-task graph must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("65 tasks"), std::string::npos)
        << e.what();
  }
}

TEST(PeriodState, DmrCountsFraction) {
  const TaskGraph g = test::indep3();
  PeriodState s(g);
  s.execute(1, 90.0);
  s.execute(2, 30.0);
  s.mark_deadlines(300.0);
  EXPECT_EQ(s.miss_count(), 1u);  // Task 0 never ran.
  EXPECT_NEAR(s.dmr(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(s.completed_count(), 2u);
}

TEST(PeriodState, ResetRestoresEverything) {
  const TaskGraph g = test::chain2();
  PeriodState s(g);
  s.execute(0, 60.0);
  s.mark_deadlines(500.0);
  s.reset();
  EXPECT_DOUBLE_EQ(s.remaining_s(0), 60.0);
  EXPECT_EQ(s.miss_count(), 0u);
  EXPECT_FALSE(s.missed(1));
}

TEST(PeriodState, PartialExecutionTracksRemaining) {
  const TaskGraph g = test::chain2();
  PeriodState s(g);
  s.execute(0, 30.0);
  EXPECT_DOUBLE_EQ(s.remaining_s(0), 30.0);
  EXPECT_FALSE(s.completed(0));
  EXPECT_FALSE(s.ready(1));
}

}  // namespace
}  // namespace solsched::task

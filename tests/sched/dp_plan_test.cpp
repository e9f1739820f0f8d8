// The DP plan handoff: sched::plan_dp builds the Optimal row's plan once,
// OptimalConfig::plan hands it to any number of schedulers. A handed plan
// must replay the self-planned run exactly, fault-free and under faults
// (the DP never reads the injector), and a plan made for other inputs must
// be rejected with the differing input named.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "../test_helpers.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "nvp/node_sim.hpp"
#include "sched/optimal.hpp"
#include "task/benchmarks.hpp"

namespace solsched::sched {
namespace {

struct Case {
  task::TaskGraph graph;
  solar::SolarTrace trace;
  nvp::NodeConfig node;
};

Case make_case(task::TaskGraph graph, std::uint64_t seed) {
  const solar::TimeGrid grid = test::small_grid();
  Case c{std::move(graph),
         test::scaled_generator(grid, seed).generate_days(2, grid),
         nvp::NodeConfig{}};
  c.node = test::small_node(c.trace.grid());
  c.node.initial_usable_j = 10.0;
  return c;
}

TEST(DpPlanHandoff, HandedPlanReproducesSelfPlannedRun) {
  const OptimalConfig dp = core::PipelineConfig::default_dp();
  for (task::TaskGraph graph :
       {task::wam_benchmark(), task::ecg_benchmark(), task::shm_benchmark()}) {
    const Case c = make_case(std::move(graph), 7);
    const fault::FaultInjector faults(
        fault::FaultPlan::parse("seed=2,blackout=3").scaled(1.0),
        c.trace.grid());
    ASSERT_GT(faults.blackout_events(), 0u);

    OptimalConfig handed = dp;
    handed.plan = plan_dp(c.graph, c.node, c.trace, dp);
    for (const fault::FaultInjector* fx :
         {&faults, static_cast<const fault::FaultInjector*>(nullptr)}) {
      const std::string where =
          c.graph.name() + (fx ? " under blackouts" : " fault-free");
      OptimalScheduler self(dp);
      OptimalScheduler replay(handed);
      const nvp::SimResult a =
          nvp::simulate(c.graph, c.trace, self, c.node, nullptr, fx);
      const nvp::SimResult b =
          nvp::simulate(c.graph, c.trace, replay, c.node, nullptr, fx);
      EXPECT_TRUE(a == b) << where;
      EXPECT_EQ(replay.planned_total_misses(), self.planned_total_misses())
          << where;
      EXPECT_EQ(replay.dp_evaluations(), self.dp_evaluations()) << where;
      ASSERT_EQ(replay.plan().size(), self.plan().size()) << where;
      for (std::size_t p = 0; p < self.plan().size(); ++p) {
        EXPECT_EQ(replay.plan()[p].cap_index, self.plan()[p].cap_index);
        EXPECT_EQ(replay.plan()[p].te, self.plan()[p].te);
        EXPECT_EQ(replay.plan()[p].alpha, self.plan()[p].alpha);
      }
      // Only the self-planned scheduler builds the Eq. 13 LUT.
      EXPECT_FALSE(self.lut().entries().empty()) << where;
      EXPECT_TRUE(replay.lut().entries().empty()) << where;
    }
  }
}

TEST(DpPlanHandoff, PlanForOtherInputsIsRejectedNamingTheInput) {
  const Case c = make_case(task::wam_benchmark(), 7);
  const OptimalConfig dp = core::PipelineConfig::default_dp();
  OptimalConfig handed = dp;
  handed.plan = plan_dp(c.graph, c.node, c.trace, dp);

  const auto expect_rejected = [](const OptimalConfig& config, const Case& at,
                                  const std::string& named) {
    OptimalScheduler policy(config);
    try {
      policy.begin_trace(at.graph, at.node, at.trace);
      ADD_FAILURE() << "accepted a plan made for a different " << named;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("made for a different " + named),
                std::string::npos)
          << e.what();
    }
  };

  expect_rejected(handed, make_case(task::wam_benchmark(), 8), "trace");
  Case bank = c;
  bank.node.capacities_f.back() *= 2.0;
  expect_rejected(handed, bank, "capacitor bank");
  Case charged = c;
  charged.node.initial_usable_j += 1.0;
  expect_rejected(handed, charged, "capacitor bank");
  OptimalConfig coarse = handed;
  coarse.energy_buckets = 6;
  expect_rejected(coarse, c, "energy_buckets (14 vs 6)");
  expect_rejected(handed, make_case(task::ecg_benchmark(), 7), "task graph");

  // The option cache is not an input: the matching plan is accepted
  // whatever the scheduler's cache settings.
  OptimalConfig uncached = handed;
  uncached.use_option_cache = false;
  OptimalScheduler accepted(uncached);
  EXPECT_NO_THROW(accepted.begin_trace(c.graph, c.node, c.trace));
  EXPECT_EQ(accepted.plan().size(), c.trace.grid().total_periods());
}

}  // namespace
}  // namespace solsched::sched

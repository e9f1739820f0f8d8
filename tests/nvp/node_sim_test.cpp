#include "nvp/node_sim.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../test_helpers.hpp"
#include "sched/asap.hpp"
#include "sched/edf.hpp"

namespace solsched::nvp {
namespace {

using solsched::test::scaled_generator;
using solsched::test::small_grid;
using solsched::test::small_node;

solar::SolarTrace bright_trace(const solar::TimeGrid& grid, double power_w) {
  solar::SolarTrace t(grid);
  for (std::size_t f = 0; f < grid.total_slots(); ++f) t.at_flat(f) = power_w;
  return t;
}

TEST(NodeConfigValidate, AggregatesEveryFinding) {
  NodeConfig bad;
  bad.grid = solar::TimeGrid{0, 12, 10, -1.0};  // Two grid findings.
  bad.capacities_f = {5.0, -2.0};               // One capacitor finding.
  bad.v_high = bad.v_low;                       // One voltage finding.
  bad.backup_energy_j = -0.1;                   // One fault-model finding.
  const auto findings = bad.findings();
  EXPECT_GE(findings.size(), 5u);
  try {
    bad.validate();
    FAIL() << "validate() must throw";
  } catch (const std::invalid_argument& e) {
    // The exception carries every finding, not just the first.
    const std::string what = e.what();
    EXPECT_NE(what.find("findings"), std::string::npos);
    for (const auto& f : findings)
      EXPECT_NE(what.find(f), std::string::npos) << f;
  }
}

TEST(NodeConfigValidate, DefaultTestNodeIsClean) {
  EXPECT_TRUE(small_node(small_grid()).findings().empty());
}

TEST(NodeSim, RejectsInvalidConfigAtEntry) {
  const auto grid = small_grid();
  NodeConfig bad = small_node(grid);
  bad.capacities_f.clear();
  sched::AsapScheduler policy;
  EXPECT_THROW(
      simulate(test::indep3(), bright_trace(grid, 0.2), policy, bad),
      std::invalid_argument);
}

TEST(NodeSim, AbundantEnergyZeroDmr) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  sched::AsapScheduler policy;
  const SimResult r =
      simulate(graph, bright_trace(grid, 0.2), policy, node);
  EXPECT_DOUBLE_EQ(r.overall_dmr(), 0.0);
  EXPECT_EQ(r.total_brownouts(), 0u);
  EXPECT_EQ(r.periods.size(), grid.total_periods());
}

TEST(NodeSim, NoEnergyAllMiss) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  sched::AsapScheduler policy;
  const SimResult r = simulate(graph, solar::SolarTrace(grid), policy, node);
  EXPECT_DOUBLE_EQ(r.overall_dmr(), 1.0);
  EXPECT_DOUBLE_EQ(r.energy_utilization(), 0.0);
}

TEST(NodeSim, InitialStorageCoversSomePeriods) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  node.initial_usable_j = 20.0;  // Several periods' worth of load.
  sched::EdfScheduler policy;
  const SimResult r = simulate(graph, solar::SolarTrace(grid), policy, node);
  EXPECT_LT(r.overall_dmr(), 1.0);
  EXPECT_GT(r.overall_dmr(), 0.0);
  // Early periods complete, later ones starve.
  EXPECT_LT(r.periods.front().dmr, r.periods.back().dmr);
}

TEST(NodeSim, PeriodRecordsAccountSolar) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  sched::AsapScheduler policy;
  const auto trace = bright_trace(grid, 0.05);
  const SimResult r = simulate(graph, trace, policy, node);
  EXPECT_NEAR(r.total_solar_j(), trace.total_energy_j(), 1e-6);
}

TEST(NodeSim, DayDmrPartitionsOverall) {
  const auto grid = small_grid(2);
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  const auto gen = scaled_generator(grid);
  const auto trace = gen.generate_days(2, small_grid());
  sched::EdfScheduler policy;
  const SimResult r = simulate(graph, trace, policy, node);
  const double combined = 0.5 * (r.day_dmr(0) + r.day_dmr(1));
  EXPECT_NEAR(combined, r.overall_dmr(), 1e-9);
}

// --- Constraint enforcement -------------------------------------------

class RogueScheduler final : public Scheduler {
 public:
  enum class Mode { kUnknownTask, kDuplicate, kNvpConflict, kNotReady,
                    kOutsideTe, kBadTeSize };
  explicit RogueScheduler(Mode mode) : mode_(mode) {}
  std::string name() const override { return "Rogue"; }

  PeriodPlan begin_period(const PeriodContext& ctx) override {
    PeriodPlan plan;
    if (mode_ == Mode::kOutsideTe)
      plan.tasks_enabled = std::vector<bool>(ctx.graph->size(), false);
    if (mode_ == Mode::kBadTeSize) plan.tasks_enabled = {true};
    return plan;
  }

  SlotAction decide_slot(const SlotContext& ctx) override {
    const auto& graph = *ctx.graph;
    SlotAction action;
    switch (mode_) {
      case Mode::kUnknownTask: action.add(graph, graph.size() + 3); break;
      // A repeated id cannot be expressed as a SlotAction; the list form
      // reaches the same check through the adapter.
      case Mode::kDuplicate: return Scheduler::decide_slot(ctx);
      case Mode::kNvpConflict:  // indep3: both on NVP 0.
        action.add(graph, 0);
        action.add(graph, 2);
        break;
      case Mode::kNotReady: action.add(graph, graph.size() == 1 ? 0 : 1); break;
      case Mode::kOutsideTe: action.add(graph, 0); break;
      case Mode::kBadTeSize: break;
    }
    return action;
  }

  std::vector<std::size_t> schedule_slot(const SlotContext&) override {
    return {0, 0};
  }

 private:
  Mode mode_;
};

class ChainScheduler final : public Scheduler {
 public:
  std::string name() const override { return "Chain"; }
  PeriodPlan begin_period(const PeriodContext&) override { return {}; }
  SlotAction decide_slot(const SlotContext& ctx) override {
    // Tries to run the dependent task first — must be rejected.
    SlotAction action;
    action.add(*ctx.graph, ctx.state->completed(0) ? 0u : 1u);
    return action;
  }
};

/// The message of the std::logic_error `simulate` throws for `policy`.
std::string rejection(const task::TaskGraph& graph, Scheduler& policy) {
  const auto grid = test::tiny_grid();
  try {
    simulate(graph, bright_trace(grid, 0.2), policy, small_node(grid));
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(NodeSimValidation, RejectsConstraintViolations) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  const auto trace = bright_trace(grid, 0.2);

  for (auto mode : {RogueScheduler::Mode::kUnknownTask,
                    RogueScheduler::Mode::kDuplicate,
                    RogueScheduler::Mode::kNvpConflict,
                    RogueScheduler::Mode::kOutsideTe,
                    RogueScheduler::Mode::kBadTeSize}) {
    RogueScheduler rogue(mode);
    EXPECT_THROW(simulate(graph, trace, rogue, node), std::logic_error)
        << static_cast<int>(mode);
  }
}

TEST(NodeSimValidation, RejectsDependencyViolation) {
  const auto grid = test::tiny_grid();
  const auto graph = test::chain2();
  NodeConfig node = small_node(grid);
  ChainScheduler rogue;
  EXPECT_THROW(simulate(graph, bright_trace(grid, 0.2), rogue, node),
               std::logic_error);
}

TEST(NodeSimValidation, EachRejectionNamesItsDefect) {
  using Mode = RogueScheduler::Mode;
  const std::pair<Mode, const char*> cases[] = {
      {Mode::kUnknownTask, "unknown task id"},
      {Mode::kDuplicate, "a task twice"},
      {Mode::kNvpConflict, "two tasks on one NVP"},
      {Mode::kOutsideTe, "outside its te set"},
      {Mode::kBadTeSize, "te vector has wrong size"}};
  for (const auto& [mode, defect] : cases) {
    RogueScheduler rogue(mode);
    EXPECT_NE(rejection(test::indep3(), rogue).find(defect), std::string::npos)
        << defect;
  }
  ChainScheduler chain;
  EXPECT_NE(rejection(test::chain2(), chain).find("incomplete dependencies"),
            std::string::npos);
}

TEST(NodeSim, RejectsMoreThan64Tasks) {
  std::vector<task::Task> tasks;
  for (std::size_t i = 0; i < 65; ++i)
    tasks.push_back({i, "t", 300.0, 30.0, 0.01, i % 2});
  const task::TaskGraph wide("wide", std::move(tasks), {});
  const auto grid = test::tiny_grid();
  sched::EdfScheduler policy;
  try {
    simulate(wide, bright_trace(grid, 0.2), policy, small_node(grid));
    FAIL() << "a 65-task graph must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("65 tasks"), std::string::npos)
        << e.what();
  }
}

TEST(NodeSim, EnergyConservationAcrossRun) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  NodeConfig node = small_node(grid);
  node.initial_usable_j = 10.0;
  const auto gen = scaled_generator(grid, 17);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  sched::EdfScheduler policy;
  const SimResult r = simulate(graph, trace, policy, node);

  double served = 0.0, loss = 0.0, spilled = 0.0;
  for (const auto& p : r.periods) {
    served += p.load_served_j;
    loss += p.conversion_loss_j + p.leakage_loss_j;
    spilled += p.spilled_j;
  }
  const double stored_delta =
      r.final_bank_energy_j - r.initial_bank_energy_j;
  // Conservation: harvested solar = served load + all losses + spilled +
  // net change of bank energy.
  EXPECT_NEAR(r.total_solar_j(), served + loss + spilled + stored_delta,
              1e-6 * std::max(1.0, r.total_solar_j()));
}

}  // namespace
}  // namespace solsched::nvp

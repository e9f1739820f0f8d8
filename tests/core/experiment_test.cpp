#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "nvp/node_sim.hpp"
#include "obs/metrics.hpp"

namespace solsched::core {
namespace {

TEST(Experiment, RunsConfiguredPolicies) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 51);
  const auto trace = gen.generate_day(solar::DayKind::kPartlyCloudy, grid);
  const auto node = test::small_node(grid);

  ComparisonConfig config;
  config.scheduler_ids = {"edf", "inter", "intra", "optimal"};
  config.dp.energy_buckets = 8;
  const auto rows =
      run_comparison(test::indep3(), trace, node, nullptr, config);
  ASSERT_EQ(rows.size(), 4u);  // Registry order: EDF, Inter, Intra, Optimal.
  EXPECT_NO_THROW(row_of(rows, "inter"));
  EXPECT_NO_THROW(row_of(rows, "intra"));
  EXPECT_NO_THROW(row_of(rows, "optimal"));
  EXPECT_NO_THROW(row_of(rows, "edf"));
  EXPECT_THROW(row_of(rows, "proposed"), std::out_of_range);
  // Lookups key on canonical ids; display names are not a key.
  EXPECT_THROW(row_of(rows, "Inter-task"), std::out_of_range);
  EXPECT_EQ(row_of(rows, "inter").algo, "Inter-task");
  EXPECT_EQ(row_of(rows, "edf").algo, "EDF");
  // A mismatch error is self-diagnosing: it lists the known ids.
  try {
    row_of(rows, "fifo");
    FAIL() << "row_of accepted an unknown id";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("inter"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("greedy"), std::string::npos);
  }
  for (const auto& row : rows) {
    EXPECT_GE(row.dmr, 0.0);
    EXPECT_LE(row.dmr, 1.0);
    EXPECT_GE(row.energy_utilization, 0.0);
    EXPECT_LE(row.energy_utilization, 1.0);
    EXPECT_EQ(row.sim.periods.size(), grid.total_periods());
  }
}

TEST(Experiment, OptimalNeverWorseThanBaselinesHere) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 52);
  const auto trace = gen.generate_day(solar::DayKind::kOvercast, grid);
  ComparisonConfig config;
  config.scheduler_ids = {"inter", "intra", "optimal"};
  const auto rows = run_comparison(task::ecg_benchmark(), trace,
                                   test::small_node(grid), nullptr, config);
  const double opt = row_of(rows, "optimal").dmr;
  EXPECT_LE(opt, row_of(rows, "inter").dmr + 0.02);
  EXPECT_LE(opt, row_of(rows, "intra").dmr + 0.02);
}

TEST(Experiment, ProposedIncludedWithController) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 53);
  const auto train_trace = gen.generate_days(2, grid);
  const auto test_trace =
      gen.generate_day(solar::DayKind::kPartlyCloudy, grid);

  PipelineConfig pc;
  pc.n_caps = 2;
  pc.dp.energy_buckets = 8;
  pc.dbn.pretrain.epochs = 3;
  pc.dbn.finetune.epochs = 20;
  const TrainedController controller = train_pipeline(
      test::indep3(), train_trace, test::small_node(grid), pc);

  const auto rows = run_comparison(test::indep3(), test_trace,
                                   test::small_node(grid), &controller, {});
  EXPECT_NO_THROW(row_of(rows, "proposed"));
  // All policies ran on the *sized* bank from the controller.
  for (const auto& row : rows)
    for (const auto& p : row.sim.periods)
      EXPECT_LT(p.cap_index, controller.node.capacities_f.size());
}

// With no plan handed in, the comparison plans its Optimal row once, without
// the Eq. 13 LUT a self-planning OptimalScheduler fills, and the row equals
// that scheduler's own run on the sized bank with the pipeline's cache.
TEST(Experiment, OptimalRowIsPlannedWithoutLut) {
  const auto grid = test::small_grid();
  const auto gen = test::scaled_generator(grid, 54);
  const auto graph = task::wam_benchmark();
  PipelineConfig pc;
  pc.n_caps = 2;
  pc.dp.energy_buckets = 8;
  pc.dbn.pretrain.epochs = 2;
  pc.dbn.finetune.epochs = 10;
  const TrainedController controller = train_pipeline(
      graph, gen.generate_days(2, grid), test::small_node(grid), pc);
  const auto trace = gen.generate_day(solar::DayKind::kOvercast, grid);

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  ComparisonConfig config;
  config.scheduler_ids = {"inter", "optimal"};
  config.dp = pc.dp;
  const auto rows = run_comparison(graph, trace, test::small_node(grid),
                                   &controller, config);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  obs::set_enabled(was_enabled);
  EXPECT_EQ(snap.counter_or("sched.dp.runs"), 1u);
  EXPECT_EQ(snap.counter_or("sched.dp.lut_entries"), 0u);

  sched::OptimalConfig dp = pc.dp;
  dp.shared_cache = controller.option_cache;
  sched::OptimalScheduler self(dp);
  const nvp::SimResult expected =
      nvp::simulate(graph, trace, self, controller.node);
  EXPECT_FALSE(self.lut().empty());
  EXPECT_TRUE(row_of(rows, "optimal").sim == expected);
}

}  // namespace
}  // namespace solsched::core

// Behavioural tests of the baseline policies (ASAP, EDF, LSA inter-task,
// intra-task load matching) on controlled scenarios.
#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "nvp/node_sim.hpp"
#include "sched/asap.hpp"
#include "sched/edf.hpp"
#include "sched/intra_task.hpp"
#include "sched/lsa_inter.hpp"

namespace solsched::sched {
namespace {

using test::small_grid;
using test::small_node;

solar::SolarTrace flat_trace(const solar::TimeGrid& grid, double power_w) {
  solar::SolarTrace t(grid);
  for (std::size_t f = 0; f < grid.total_slots(); ++f) t.at_flat(f) = power_w;
  return t;
}

TEST(Baselines, AllMeetDeadlinesWithAbundantSolar) {
  const auto grid = small_grid();
  const auto graph = test::indep3();
  const auto node = small_node(grid);
  const auto trace = flat_trace(grid, 0.2);

  AsapScheduler asap;
  EdfScheduler edf;
  LsaInterScheduler lsa;
  IntraTaskScheduler intra;
  for (nvp::Scheduler* policy :
       std::initializer_list<nvp::Scheduler*>{&asap, &edf, &lsa, &intra}) {
    const auto r = nvp::simulate(graph, trace, *policy, node);
    EXPECT_DOUBLE_EQ(r.overall_dmr(), 0.0) << policy->name();
  }
}

TEST(Baselines, NamesStable) {
  EXPECT_EQ(AsapScheduler{}.name(), "ASAP");
  EXPECT_EQ(EdfScheduler{}.name(), "EDF");
  EXPECT_EQ(LsaInterScheduler{}.name(), "Inter-task");
  EXPECT_EQ(IntraTaskScheduler{}.name(), "Intra-task");
}

TEST(Asap, RunsEverythingImmediately) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto node = small_node(grid);
  AsapScheduler asap;
  const auto r = nvp::simulate(graph, flat_trace(grid, 0.2), asap, node);
  // Total exec = 60 + 90 + 30 s over 2 NVPs -> everything done within the
  // first 4 slots of each period; served energy matches the demand.
  const auto& p0 = r.periods.front();
  EXPECT_EQ(p0.completions, 3u);
  EXPECT_NEAR(p0.load_served_j, graph.total_energy_j(), 1e-9);
}

TEST(Lsa, DefersWhenSolarAmple) {
  // With moderate solar and distant deadlines, LSA should not start tasks
  // whose power it cannot cover — it waits (lazy) instead of draining the
  // (empty) capacitor.
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();
  const auto node = small_node(grid);
  LsaInterScheduler lsa;
  const auto r = nvp::simulate(graph, flat_trace(grid, 0.012), lsa, node);
  // 12 mW covers only the 10 mW task "for free"; others start only under
  // deadline pressure. There must be fewer brownouts than an ASAP run.
  AsapScheduler asap;
  const auto ra = nvp::simulate(graph, flat_trace(grid, 0.012), asap, node);
  EXPECT_LE(r.total_brownouts(), ra.total_brownouts());
}

TEST(Intra, MatchesLoadToSolar) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();  // 15 / 25 / 10 mW.
  const auto node = small_node(grid);
  IntraTaskScheduler intra;
  // ~28 mW usable: best match is {15 mW + 10 mW} or {25 mW}; either way the
  // load should hug the solar level, so storage traffic stays tiny early on.
  const auto r = nvp::simulate(graph, flat_trace(grid, 0.030), intra, node);
  const auto& p0 = r.periods.front();
  EXPECT_EQ(p0.brownout_slots, 0u);
  EXPECT_DOUBLE_EQ(p0.dmr, 0.0);
}

TEST(Intra, ScarcityBeatsInterTask) {
  // Under heavy scarcity the fine-grained matcher completes at least as
  // much as the lazy whole-task policy (the paper's [9] vs [3] ordering).
  const auto grid = small_grid();
  const auto graph = task::wam_benchmark();
  auto node = small_node(grid);
  const auto gen = test::scaled_generator(grid, 5);
  const auto trace = gen.generate_day(solar::DayKind::kOvercast, grid);
  IntraTaskScheduler intra;
  LsaInterScheduler lsa;
  const double dmr_intra =
      nvp::simulate(graph, trace, intra, node).overall_dmr();
  const double dmr_lsa = nvp::simulate(graph, trace, lsa, node).overall_dmr();
  EXPECT_LE(dmr_intra, dmr_lsa + 0.03);
}

TEST(Edf, PrioritizesEarlierDeadlineOnSharedNvp) {
  const auto grid = test::tiny_grid();
  const auto graph = test::indep3();  // Tasks 0 (D150) and 2 (D300) on NVP0.
  const auto node = small_node(grid);

  // Probe: record what EDF picks in the very first slot.
  class Probe final : public nvp::Scheduler {
   public:
    EdfScheduler inner;
    std::vector<std::size_t> first;
    std::string name() const override { return "probe"; }
    nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override {
      return inner.begin_period(ctx);
    }
    nvp::SlotAction decide_slot(const nvp::SlotContext& ctx) override {
      const nvp::SlotAction out = inner.decide_slot(ctx);
      if (first.empty()) first.assign(out.begin(), out.end());
      return out;
    }
  } probe;

  nvp::simulate(graph, flat_trace(grid, 0.2), probe, node);
  // Slot 0 must contain task 0 (earliest deadline on NVP0), not task 2.
  EXPECT_NE(std::find(probe.first.begin(), probe.first.end(), 0u),
            probe.first.end());
  EXPECT_EQ(std::find(probe.first.begin(), probe.first.end(), 2u),
            probe.first.end());
}

}  // namespace
}  // namespace solsched::sched

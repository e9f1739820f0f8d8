// The slot loop allocates nothing: for every registry policy, nvp::simulate
// must make exactly as many heap allocations on a day of 20-slot periods as
// on a day of the same number of 40-slot periods. Per-run and per-period
// allocations (the result, the predictor, the period plan, the previous
// period's solar) are equal on both grids; one allocation per slot would
// show up as a difference of n_periods x 20.
//
// Allocation is counted with a global operator new override, so this test
// lives in its own binary (the override is process-wide). The offline plan
// Optimal computes in begin_trace is not part of the slot loop, and its
// size depends on the trace, so counting pauses there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "../test_helpers.hpp"
#include "core/pipeline.hpp"
#include "nvp/node_sim.hpp"
#include "sched/registry.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace solsched::nvp {
namespace {

/// Forwards to a policy with counting paused during begin_trace.
class PlanUncounted final : public Scheduler {
 public:
  explicit PlanUncounted(Scheduler& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void begin_trace(const task::TaskGraph& graph, const NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    g_counting = false;
    inner_->begin_trace(graph, config, trace);
    g_counting = true;
  }
  PeriodPlan begin_period(const PeriodContext& ctx) override {
    return inner_->begin_period(ctx);
  }
  SlotAction decide_slot(const SlotContext& ctx) override {
    return inner_->decide_slot(ctx);
  }

 private:
  Scheduler* inner_;
};

/// A controller for "proposed", trained once on 20-slot periods. Its input
/// takes the first 20 slots of a longer period, so it also runs on 40.
const core::TrainedController& controller() {
  static const core::TrainedController trained = [] {
    const solar::TimeGrid day{1, 12, 20, 30.0};
    const auto trace = test::scaled_generator(day, 5).generate_days(2, day);
    core::PipelineConfig config;
    config.n_caps = 2;
    config.dp.energy_buckets = 8;
    config.dbn.pretrain.epochs = 2;
    config.dbn.finetune.epochs = 10;
    return core::train_pipeline(task::wam_benchmark(), trace,
                                test::small_node(trace.grid()), config);
  }();
  return trained;
}

/// Heap allocations of one simulate() of policy `id` on one WAM day of 12
/// periods of `n_slots` slots.
std::uint64_t allocations(const std::string& id, std::size_t n_slots) {
  const solar::TimeGrid grid{1, 12, n_slots, 30.0};
  const auto trace = test::scaled_generator(grid, 7).generate_day(
      solar::DayKind::kPartlyCloudy, grid);
  const auto graph = task::wam_benchmark();
  const sched::SchedulerInfo& info = sched::Registry::global().at(id);
  sched::SchedulerContext ctx;
  ctx.dp = core::PipelineConfig::default_dp();
  NodeConfig node = test::small_node(grid);
  if (info.needs_controller) {
    ctx.model = &controller().model;
    ctx.online = controller().online;
    node = controller().node;
    node.grid = grid;
  }
  node.initial_usable_j = 10.0;
  const auto policy = info.factory(ctx);
  PlanUncounted uncounted(*policy);

  const std::uint64_t before = g_allocations.load();
  g_counting = true;
  const SimResult result = simulate(graph, trace, uncounted, node);
  g_counting = false;
  EXPECT_EQ(result.periods.size(), grid.n_periods);
  return g_allocations.load() - before;
}

TEST(SlotAlloc, NoHeapAllocationPerSlot) {
  for (const sched::SchedulerInfo& info : sched::Registry::global().entries()) {
    const std::uint64_t short_periods = allocations(info.id, 20);
    const std::uint64_t long_periods = allocations(info.id, 40);
    EXPECT_EQ(short_periods, long_periods)
        << info.id << ": " << short_periods << " allocations on 20-slot "
        << "periods, " << long_periods << " on 40-slot periods";
  }
}

}  // namespace
}  // namespace solsched::nvp

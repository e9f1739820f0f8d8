// End-to-end pin of the DP oracle: OptimalScheduler with the pipeline's DP
// config on a fixed two-day WAM trace must reproduce one recorded FNV-1a
// digest of its plan, its LUT and planned_total_misses(). Any drift in the
// period kernel, the option cache or the label DP changes the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "../test_helpers.hpp"
#include "core/pipeline.hpp"
#include "sched/optimal.hpp"
#include "util/byte_format.hpp"
#include "util/thread_pool.hpp"

namespace solsched::sched {
namespace {

std::uint64_t fold(std::uint64_t h, double x) {
  return util::fnv1a_u64(h, std::bit_cast<std::uint64_t>(x));
}

/// A te over `n_tasks` tasks: its length, then its bits as a mask.
std::uint64_t fold_te(std::uint64_t h, std::size_t n_tasks,
                      std::uint64_t mask) {
  return util::fnv1a_u64(util::fnv1a_u64(h, n_tasks), mask);
}

std::uint64_t fold(std::uint64_t h, const std::vector<bool>& te) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < te.size(); ++i)
    if (te[i]) mask |= std::uint64_t{1} << i;
  return fold_te(h, te.size(), mask);
}

std::uint64_t dp_digest(const OptimalScheduler& dp, std::size_t n_tasks) {
  std::uint64_t h = util::kFnv1aOffsetBasis;
  h = util::fnv1a_u64(h, dp.plan().size());
  for (const PlannedPeriod& p : dp.plan()) {
    h = util::fnv1a_u64(h, p.cap_index);
    h = fold(h, p.te);
    h = fold(h, p.alpha);
    h = util::fnv1a_u64(h, p.planned_misses);
    h = fold(h, p.planned_consumed_j);
    h = fold(h, p.planned_v0);
  }
  h = util::fnv1a_u64(h, dp.lut().size());
  for (const LutEntry& e : dp.lut().entries()) {
    h = fold(h, e.key.dmr);
    h = fold(h, e.key.solar_energy_j);
    h = fold(h, e.key.capacity_f);
    h = fold(h, e.key.v0);
    h = fold(h, e.consumed_j);
    h = fold(h, e.alpha);
    h = fold_te(h, n_tasks, e.te);
  }
  return util::fnv1a_u64(h, dp.planned_total_misses());
}

TEST(DpPin, DefaultDpOnTwoDayWamTraceMatchesRecordedDigest) {
  const solar::TimeGrid grid = test::small_grid();
  const auto trace = test::scaled_generator(grid, 7).generate_days(2, grid);
  const auto graph = task::wam_benchmark();
  const nvp::NodeConfig node = test::small_node(trace.grid());
  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    OptimalScheduler dp(core::PipelineConfig::default_dp());
    dp.begin_trace(graph, node, trace);
    // Recorded from the per-subset evaluator the period kernel replaced
    // (56 planned misses, 376 LUT entries).
    const std::uint64_t digest = dp_digest(dp, graph.size());
    EXPECT_EQ(digest, 0x38e54307074d7d80ull)
        << "threads " << threads << " digest 0x" << std::hex << digest;
    EXPECT_EQ(dp.plan().size(), trace.grid().total_periods());
  }
  util::ThreadPool::set_global_threads(
      util::ThreadPool::thread_count_from_env());
}

}  // namespace
}  // namespace solsched::sched

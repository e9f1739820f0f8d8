// Outside-in layer timing: the offline pipeline and one comparison,
// recomposed from the public functions of each module so the benchmark
// can put a clock around every layer call without touching the library.
//
// The recomposition mirrors core::train_pipeline and core::run_comparison
// call for call. Its outputs are compared with the library's (see
// `faithful` in the workloads), so a later change to either function that
// makes this file stale shows up as trace.faithful = 0 instead of as
// silently wrong layer times.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_injector.hpp"
#include "harness.hpp"
#include "nvp/sim_result.hpp"
#include "sched/registry.hpp"
#include "solar/irradiance.hpp"
#include "solar/solar_trace.hpp"
#include "solar/time_grid.hpp"

namespace perfbench {

namespace core = solsched::core;

/// The registry ids the per-layer table names (nvp.simulate_ms.<id>).
extern const std::vector<std::string> kPolicyIds;

/// Layer times (ms) and work counts of one recomposed pass. Fields that a
/// pass does not exercise stay 0.
struct LayerTimes {
  double sizing_ms = 0.0;
  double dp_ms = 0.0;          ///< OptimalScheduler::begin_trace, all calls.
  double oracle_sim_ms = 0.0;  ///< Oracle nvp::simulate minus its DP.
  double dbn_train_ms = 0.0;   ///< Dbn::train.
  std::vector<double> simulate_ms = std::vector<double>(kPolicyIds.size(), 0.0);
  std::size_t dp_evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t train_samples = 0;
  double train_flops = 0.0;

  /// Sum of the layer times above.
  double covered_ms() const;
};

/// core::train_pipeline, recomposed with a clock around each layer.
core::TrainedController traced_train_pipeline(
    const solsched::task::TaskGraph& graph,
    const solsched::solar::SolarTrace& training_trace,
    const solsched::nvp::NodeConfig& base,
    const core::PipelineConfig& config, LayerTimes& times);

/// One comparison row of the recomposition.
struct TracedRow {
  std::string id;
  std::string algo;
  solsched::nvp::SimResult sim;
};

/// core::run_comparison over every registry entry, serially, with each
/// policy's nvp::simulate timed (and the Optimal DP split out).
std::vector<TracedRow> traced_comparison(
    const solsched::task::TaskGraph& graph,
    const solsched::solar::SolarTrace& trace,
    const solsched::nvp::NodeConfig& node,
    const core::TrainedController* trained,
    const solsched::sched::OptimalConfig& dp,
    const solsched::fault::FaultInjector* faults, LayerTimes& times);

/// One day of the benchmark's time base: the paper grid (144 periods of
/// 20 x 30 s slots) or, for the smoke test, 12 periods of 10 slots.
solsched::solar::TimeGrid day_grid(Scale scale);

/// A multi-day trace with a fixed sequence of day kinds: the seed varies
/// each day's clouds and noise but not its weather class, so the work a
/// pass does stays comparable from seed to seed.
solsched::solar::SolarTrace weather_trace(
    Scale scale, std::uint64_t seed,
    const std::vector<solsched::solar::DayKind>& kinds);

/// Offline pipeline knobs: the paper's defaults with `n_caps` capacitors,
/// or a few-epoch, few-bucket version on the tiny grid.
core::PipelineConfig pipeline_config(Scale scale);

/// Writes the per-layer metrics of `passes`: the median of each layer time
/// across passes, and the work counts of the last pass (they repeat
/// exactly from pass to pass).
void report_layers(const std::vector<LayerTimes>& passes, Result& out);

}  // namespace perfbench

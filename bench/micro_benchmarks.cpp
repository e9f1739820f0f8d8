// Google-benchmark microbenchmarks of the hot kernels: capacitor slot
// update, PMU slot resolution, DBN forward pass, per-period optimizer
// evaluation and Pareto sweep, WCMA prediction, and trace generation.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "sched/period_option_cache.hpp"
#include "sched/period_optimizer.hpp"
#include "solar/predictor.hpp"

using namespace solsched;

namespace {

void BM_SuperCapChargeDischarge(benchmark::State& state) {
  storage::SuperCapacitor cap(
      storage::CapParams{10.0, 0.5, 5.0},
      storage::RegulatorModel::fitted_default(),
      storage::LeakageModel::fitted_default());
  double toggle = 1.0;
  for (auto _ : state) {
    if (toggle > 0)
      benchmark::DoNotOptimize(cap.charge(1.0));
    else
      benchmark::DoNotOptimize(cap.discharge(0.8));
    cap.apply_leakage(30.0);
    toggle = -toggle;
  }
}
BENCHMARK(BM_SuperCapChargeDischarge);

void BM_PmuRunSlot(benchmark::State& state) {
  storage::CapacitorBank bank({1.0, 10.0, 50.0, 100.0},
                              storage::RegulatorModel::fitted_default(),
                              storage::LeakageModel::fitted_default());
  bank.selected().set_usable_energy_j(20.0);
  const storage::Pmu pmu;
  double solar = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmu.run_slot(solar, 0.04, bank, 30.0));
    solar = solar < 0.09 ? solar + 0.001 : 0.01;
  }
}
BENCHMARK(BM_PmuRunSlot);

void BM_DbnForward(benchmark::State& state) {
  static const core::TrainedController controller =
      bench::train_for(task::random_case(1), 2, 2);
  ann::Vector x(controller.model.dbn->n_inputs(), 0.4);
  for (auto _ : state)
    benchmark::DoNotOptimize(controller.model.dbn->predict(x));
}
BENCHMARK(BM_DbnForward);

void BM_PeriodOptimizerEvaluate(benchmark::State& state) {
  const auto graph = task::wam_benchmark();
  const sched::PeriodOptimizer optimizer(
      graph, storage::PmuConfig{}, storage::RegulatorModel::fitted_default(),
      storage::LeakageModel::fitted_default(), 0.5, 5.0, 30.0);
  const std::vector<double> solar(20, 0.04);
  for (auto _ : state)
    benchmark::DoNotOptimize(optimizer.evaluate({}, solar, 10.0, 2.0));
}
BENCHMARK(BM_PeriodOptimizerEvaluate);

void BM_PeriodOptimizerPareto(benchmark::State& state) {
  const auto graph = task::wam_benchmark();
  const sched::PeriodOptimizer optimizer(
      graph, storage::PmuConfig{}, storage::RegulatorModel::fitted_default(),
      storage::LeakageModel::fitted_default(), 0.5, 5.0, 30.0);
  const std::vector<double> solar(20, 0.03);
  for (auto _ : state)
    benchmark::DoNotOptimize(optimizer.pareto_options(solar, 10.0, 2.0));
}
BENCHMARK(BM_PeriodOptimizerPareto);

void BM_ParetoCold(benchmark::State& state) {
  const auto graph = task::wam_benchmark();
  const sched::PeriodOptimizer optimizer(
      graph, storage::PmuConfig{}, storage::RegulatorModel::fitted_default(),
      storage::LeakageModel::fitted_default(), 0.5, 5.0, 30.0);
  // Rotating solar vectors so every iteration is a genuinely new period
  // (no warm allocator or branch-predictor aliasing on one input).
  std::vector<std::vector<double>> solars;
  for (std::size_t k = 0; k < 16; ++k)
    solars.push_back(std::vector<double>(20, 0.01 + 0.005 * double(k)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimizer.pareto_options(solars[i % solars.size()], 10.0, 2.0));
    ++i;
  }
}
BENCHMARK(BM_ParetoCold);

// The DP's inner solve on each paper benchmark: one pareto_options call per
// iteration, rotating over the daylight periods of a partly cloudy day x
// capacities {1, 10, 50, 100} F x four start voltages, so the prefix tree
// sees the spread of solar/storage regimes the DP visits.
void BM_ParetoOptions(benchmark::State& state, task::TaskGraph (*make)()) {
  const auto graph = make();
  const sched::PeriodOptimizer optimizer(
      graph, storage::PmuConfig{}, storage::RegulatorModel::fitted_default(),
      storage::LeakageModel::fitted_default(), 0.5, 5.0, 30.0);
  const auto grid = bench::paper_grid();
  const auto trace = bench::paper_generator().generate_day(
      solar::DayKind::kPartlyCloudy, grid);
  struct Cell {
    std::vector<double> solar;
    double capacity_f;
    double v0;
  };
  std::vector<Cell> cells;
  for (std::size_t p = 0; p < grid.n_periods; ++p) {
    const std::vector<double> solar = trace.period_powers(0, p);
    double energy = 0.0;
    for (double w : solar) energy += w;
    if (energy <= 0.0) continue;
    for (double capacity_f : {1.0, 10.0, 50.0, 100.0})
      for (double v0 : {0.5, 1.5, 3.0, 4.5})
        cells.push_back({solar, capacity_f, v0});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Cell& cell = cells[i++ % cells.size()];
    benchmark::DoNotOptimize(
        optimizer.pareto_options(cell.solar, cell.capacity_f, cell.v0));
  }
}
BENCHMARK_CAPTURE(BM_ParetoOptions, wam, task::wam_benchmark);
BENCHMARK_CAPTURE(BM_ParetoOptions, ecg, task::ecg_benchmark);
BENCHMARK_CAPTURE(BM_ParetoOptions, shm, task::shm_benchmark);

void BM_ParetoCached(benchmark::State& state) {
  const auto graph = task::wam_benchmark();
  const sched::PeriodOptimizer optimizer(
      graph, storage::PmuConfig{}, storage::RegulatorModel::fitted_default(),
      storage::LeakageModel::fitted_default(), 0.5, 5.0, 30.0);
  std::vector<std::vector<double>> solars;
  for (std::size_t k = 0; k < 16; ++k)
    solars.push_back(std::vector<double>(20, 0.01 + 0.005 * double(k)));
  sched::PeriodOptionCache cache;
  const auto lookup = [&](const std::vector<double>& solar) {
    return cache.lookup_or_compute(solar, 10.0, 2.0, [&] {
      return optimizer.pareto_options(solar, 10.0, 2.0);
    });
  };
  for (const auto& solar : solars) lookup(solar);  // Warm every key.
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lookup(solars[i % solars.size()]));
    ++i;
  }
}
BENCHMARK(BM_ParetoCached);

void BM_WcmaPredict(benchmark::State& state) {
  const auto grid = bench::paper_grid();
  const auto trace = bench::paper_generator().generate_day(
      solar::DayKind::kPartlyCloudy, grid);
  solar::WcmaPredictor predictor(grid.slots_per_day());
  for (std::size_t f = 0; f < grid.slots_per_day() / 2; ++f)
    predictor.observe(trace.at_flat(f));
  for (auto _ : state) benchmark::DoNotOptimize(predictor.predict(20));
}
BENCHMARK(BM_WcmaPredict);

void BM_TraceGenerateDay(benchmark::State& state) {
  const auto gen = bench::paper_generator();
  const auto grid = bench::paper_grid();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        gen.generate_day(solar::DayKind::kPartlyCloudy, grid));
}
BENCHMARK(BM_TraceGenerateDay);

}  // namespace

BENCHMARK_MAIN();

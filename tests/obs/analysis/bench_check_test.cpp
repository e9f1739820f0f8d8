// Bench regression gate and the solsched-inspect CLI driver: bound parsing,
// pass/fail verdicts, and end-to-end exit codes through run_inspect.
#include "obs/analysis/bench_check.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analysis/inspect.hpp"
#include "obs/sim_trace.hpp"

namespace solsched::obs::analysis {
namespace {

std::string bench_json(double base_ms, double other_ms) {
  return "{\"runs\": {\"baseline_1t\": {\"total_ms\": " +
         std::to_string(base_ms) +
         "}, \"pipeline_4t\": {\"total_ms\": " + std::to_string(other_ms) +
         "}}}";
}

TEST(BenchCheck, ParsesRegressFractions) {
  EXPECT_DOUBLE_EQ(parse_regress_fraction("15%"), 0.15);
  EXPECT_DOUBLE_EQ(parse_regress_fraction("0.15"), 0.15);
  EXPECT_DOUBLE_EQ(parse_regress_fraction("0"), 0.0);
  EXPECT_THROW(parse_regress_fraction(""), std::runtime_error);
  EXPECT_THROW(parse_regress_fraction("abc"), std::runtime_error);
  EXPECT_THROW(parse_regress_fraction("-5%"), std::runtime_error);
  EXPECT_THROW(parse_regress_fraction("15%x"), std::runtime_error);
}

TEST(BenchCheck, IdenticalDocumentsPass) {
  const std::string doc = bench_json(100.0, 40.0);
  const BenchCheckResult r = check_bench(doc, doc, 0.15);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.deltas.size(), 2u);
  for (const BenchDelta& d : r.deltas) {
    EXPECT_DOUBLE_EQ(d.ratio, 1.0);
    EXPECT_FALSE(d.regressed);
  }
}

// The synthetic 2x regression from the acceptance criteria: one run doubles
// its total_ms, the gate must go red.
TEST(BenchCheck, DoubledRuntimeFails) {
  const BenchCheckResult r =
      check_bench(bench_json(100.0, 40.0), bench_json(200.0, 40.0), 0.15);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.deltas.size(), 2u);
  const auto& slow = r.deltas[0].run == "baseline_1t" ? r.deltas[0]
                                                      : r.deltas[1];
  EXPECT_TRUE(slow.regressed);
  EXPECT_DOUBLE_EQ(slow.ratio, 2.0);
}

TEST(BenchCheck, SmallDriftWithinBoundPasses) {
  const BenchCheckResult r =
      check_bench(bench_json(100.0, 40.0), bench_json(110.0, 42.0), 0.15);
  EXPECT_TRUE(r.ok);
}

// Runs present on only one side are noted, never failed: the bench shape
// may legitimately evolve between commits.
TEST(BenchCheck, OneSidedRunsAreNotesNotFailures) {
  const std::string old_doc =
      "{\"runs\": {\"a\": {\"total_ms\": 10}, \"gone\": {\"total_ms\": 5}}}";
  const std::string new_doc =
      "{\"runs\": {\"a\": {\"total_ms\": 10}, \"fresh\": {\"total_ms\": 7}}}";
  const BenchCheckResult r = check_bench(old_doc, new_doc, 0.15);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.only_old.size(), 1u);
  EXPECT_EQ(r.only_old[0], "gone");
  ASSERT_EQ(r.only_new.size(), 1u);
  EXPECT_EQ(r.only_new[0], "fresh");
}

// train_ms is gated whenever both files report it — a slower training
// pipeline can't hide behind a faster comparison phase keeping total_ms
// flat. Runs reporting it on only one side skip the metric silently.
TEST(BenchCheck, TrainMsGatedWhenPresentOnBothSides) {
  const std::string old_doc =
      "{\"runs\": {\"fast_1t\": {\"total_ms\": 100, \"train_ms\": 80}, "
      "\"campaign\": {\"total_ms\": 50}}}";
  const std::string new_doc =
      "{\"runs\": {\"fast_1t\": {\"total_ms\": 100, \"train_ms\": 160}, "
      "\"campaign\": {\"total_ms\": 50, \"train_ms\": 10}}}";
  const BenchCheckResult r = check_bench(old_doc, new_doc, 0.15);
  EXPECT_FALSE(r.ok);
  // fast_1t total + train, campaign total only (its train_ms is one-sided).
  ASSERT_EQ(r.deltas.size(), 3u);
  std::size_t regressed = 0;
  for (const BenchDelta& d : r.deltas)
    if (d.regressed) {
      ++regressed;
      EXPECT_EQ(d.run, "fast_1t");
      EXPECT_EQ(d.metric, "train_ms");
      EXPECT_DOUBLE_EQ(d.ratio, 2.0);
    }
  EXPECT_EQ(regressed, 1u);
}

// -- kernel schema (BENCH_ann.json) ----------------------------------------

std::string kernel_json(double gemv_mflops, double sigmoid_ns) {
  return "{\"dispatch\": \"avx2\", \"kernels\": ["
         "{\"kernel\": \"gemv\", \"rows\": 24, \"cols\": 25, "
         "\"ns_per_call\": 107.6, \"mflops\": " +
         std::to_string(gemv_mflops) +
         "}, "
         "{\"kernel\": \"sigmoid\", \"rows\": 24, \"cols\": 25, "
         "\"ns_per_call\": " +
         std::to_string(sigmoid_ns) + ", \"mflops\": 0}]}";
}

// A "kernels" baseline flips the gate into Gflop/s mode: throughput drops
// regress (ratio = old/new), gains never do.
TEST(BenchCheck, KernelSchemaGatesThroughputDrops) {
  const std::string base = kernel_json(10000, 500);
  const BenchCheckResult same = check_bench(base, base, 0.15);
  EXPECT_TRUE(same.ok);
  ASSERT_EQ(same.deltas.size(), 2u);
  EXPECT_EQ(same.deltas.begin()->run, "gemv[24x25]");
  for (const BenchDelta& d : same.deltas) EXPECT_DOUBLE_EQ(d.ratio, 1.0);

  const BenchCheckResult slow = check_bench(base, kernel_json(5000, 500), 0.15);
  EXPECT_FALSE(slow.ok);
  for (const BenchDelta& d : slow.deltas)
    if (d.run == "gemv[24x25]") {
      EXPECT_EQ(d.metric, "mflops");
      EXPECT_DOUBLE_EQ(d.ratio, 2.0);  // old/new: > 1 means slower.
      EXPECT_TRUE(d.regressed);
    }

  EXPECT_TRUE(check_bench(base, kernel_json(20000, 500), 0.15).ok);
}

// Kernels with no flop count (sigmoid reports mflops 0) are gated on
// per-call latency instead — slower calls regress (ratio = new/old).
TEST(BenchCheck, KernelSchemaFallsBackToLatencyWithoutMflops) {
  const BenchCheckResult r =
      check_bench(kernel_json(10000, 500), kernel_json(10000, 1500), 0.15);
  EXPECT_FALSE(r.ok);
  for (const BenchDelta& d : r.deltas)
    if (d.run == "sigmoid[24x25]") {
      EXPECT_EQ(d.metric, "ns_per_call");
      EXPECT_DOUBLE_EQ(d.ratio, 3.0);
      EXPECT_TRUE(d.regressed);
    }
}

TEST(BenchCheck, KernelSchemaMismatchesThrow) {
  const std::string base = kernel_json(10000, 500);
  // Candidate dropped its mflops measurement: that's a harness bug, not a
  // regression verdict.
  std::string lost = base;
  const std::string needle = "\"mflops\": 10000.000000";
  ASSERT_NE(lost.find(needle), std::string::npos);
  lost.replace(lost.find(needle), needle.size(), "\"mflops\": 0");
  EXPECT_THROW(check_bench(base, lost, 0.15), std::runtime_error);
  // A kernels baseline against a runs candidate is a schema mismatch.
  EXPECT_THROW(check_bench(base, bench_json(1, 1), 0.15), std::runtime_error);
}

// Shape changes (a size added or removed from the sweep) are notes.
TEST(BenchCheck, KernelSchemaOneSidedEntriesAreNotes) {
  const std::string wide =
      "{\"kernels\": ["
      "{\"kernel\": \"gemv\", \"rows\": 24, \"cols\": 25, \"mflops\": 100},"
      "{\"kernel\": \"gemv\", \"rows\": 12, \"cols\": 24, \"mflops\": 100}]}";
  const std::string narrow =
      "{\"kernels\": ["
      "{\"kernel\": \"gemv\", \"rows\": 24, \"cols\": 25, \"mflops\": 100}]}";
  const BenchCheckResult r = check_bench(wide, narrow, 0.15);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.only_old.size(), 1u);
  EXPECT_EQ(r.only_old[0], "gemv[12x24]");
  EXPECT_TRUE(check_bench(narrow, wide, 0.15).only_new.size() == 1);
}

// -- serve schema (BENCH_serve.json) ---------------------------------------

std::string serve_json(double p99_us, double qps) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"scenarios\": ["
                "{\"scenario\": \"decision_hot\", \"p99_us\": %f, "
                "\"qps\": %f},"
                "{\"scenario\": \"fallback\", \"p99_us\": %f}]}",
                p99_us, qps, p99_us * 0.5);
  return buf;
}

TEST(BenchCheck, ServeSchemaGatesTailLatencyAndThroughput) {
  const std::string base = serve_json(200.0, 50000.0);
  const BenchCheckResult same = check_bench(base, base, 0.15);
  EXPECT_TRUE(same.ok);
  // decision_hot contributes p99_us + qps, fallback (no qps) only p99_us.
  ASSERT_EQ(same.deltas.size(), 3u);
  for (const BenchDelta& d : same.deltas) EXPECT_DOUBLE_EQ(d.ratio, 1.0);

  // Tail latency doubled: new/old = 2.
  const BenchCheckResult slow =
      check_bench(base, serve_json(400.0, 50000.0), 0.15);
  EXPECT_FALSE(slow.ok);
  for (const BenchDelta& d : slow.deltas)
    if (d.metric == "p99_us") {
      EXPECT_DOUBLE_EQ(d.ratio, 2.0);
      EXPECT_TRUE(d.regressed);
    }

  // Throughput halved: old/new = 2 even though latency held.
  const BenchCheckResult starved =
      check_bench(base, serve_json(200.0, 25000.0), 0.15);
  EXPECT_FALSE(starved.ok);
  for (const BenchDelta& d : starved.deltas)
    if (d.metric == "qps") {
      EXPECT_DOUBLE_EQ(d.ratio, 2.0);
      EXPECT_TRUE(d.regressed);
    }

  // Faster and fatter both pass.
  EXPECT_TRUE(check_bench(base, serve_json(100.0, 100000.0), 0.15).ok);
}

TEST(BenchCheck, ServeSchemaFallsBackToNsPerQuery) {
  const std::string old_ns =
      "{\"scenarios\": [{\"scenario\": \"decision_hot\", "
      "\"ns_per_query\": 1000}]}";
  const std::string new_ns =
      "{\"scenarios\": [{\"scenario\": \"decision_hot\", "
      "\"ns_per_query\": 3000}]}";
  const BenchCheckResult r = check_bench(old_ns, new_ns, 0.15);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].metric, "ns_per_query");
  EXPECT_DOUBLE_EQ(r.deltas[0].ratio, 3.0);
}

TEST(BenchCheck, ServeSchemaMismatchesThrow) {
  const std::string base = serve_json(200.0, 50000.0);
  // Candidate lost its latency metric entirely: harness bug, not a verdict.
  EXPECT_THROW(
      check_bench(base,
                  "{\"scenarios\": [{\"scenario\": \"decision_hot\"},"
                  "{\"scenario\": \"fallback\"}]}",
                  0.15),
      std::runtime_error);
  // Baseline scenario with neither p99_us nor ns_per_query.
  EXPECT_THROW(
      check_bench("{\"scenarios\": [{\"scenario\": \"x\"}]}",
                  "{\"scenarios\": [{\"scenario\": \"x\"}]}", 0.15),
      std::runtime_error);
  // One-sided scenarios are notes, not failures.
  const BenchCheckResult r = check_bench(
      base, "{\"scenarios\": [{\"scenario\": \"decision_hot\", "
            "\"p99_us\": 200, \"qps\": 50000}]}",
      0.15);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.only_old.size(), 1u);
  EXPECT_EQ(r.only_old[0], "fallback");
}

TEST(BenchCheck, RejectsMalformedDocuments) {
  EXPECT_THROW(check_bench("{}", bench_json(1, 1), 0.15), std::runtime_error);
  EXPECT_THROW(check_bench("not json", bench_json(1, 1), 0.15),
               std::runtime_error);
  EXPECT_THROW(
      check_bench("{\"runs\": {\"a\": {\"total_ms\": 0}}}",
                  "{\"runs\": {\"a\": {\"total_ms\": 1}}}", 0.15),
      std::runtime_error);
}

// -- run_inspect end to end ------------------------------------------------

class InspectCli : public ::testing::Test {
 protected:
  std::string write_temp(const std::string& name, const std::string& body) {
    const std::string path = ::testing::TempDir() + "inspect_" + name;
    std::ofstream(path) << body;
    paths_.push_back(path);
    return path;
  }

  int run(std::vector<std::string> args) {
    std::vector<const char*> argv = {"solsched-inspect"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return run_inspect(static_cast<int>(argv.size()), argv.data());
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

// A minimal trace whose single period balances exactly: 1.0 in, 0.4 served,
// 0.1 conversion loss, bank 2.0 -> 2.5.
const char kBalancedTrace[] =
    "{\"type\":\"bank_energy\",\"day\":0,\"period\":0,"
    "\"begin_j\":2,\"end_j\":2.5}\n"
    "{\"type\":\"period_energy\",\"day\":0,\"period\":0,"
    "\"solar_in_j\":1,\"load_served_j\":0.4,\"conversion_loss_j\":0.1,"
    "\"leakage_loss_j\":0,\"spilled_j\":0}\n"
    "{\"type\":\"deadline\",\"day\":0,\"period\":0,"
    "\"misses\":1,\"completions\":4,\"dmr\":0.2,\"brownout_slots\":2}\n";

TEST_F(InspectCli, SummaryLedgerAndDmrSucceedOnBalancedTrace) {
  const std::string trace = write_temp("ok.jsonl", kBalancedTrace);
  EXPECT_EQ(run({"summary", trace}), 0);
  EXPECT_EQ(run({"ledger", trace}), 0);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "1"}), 0);
  EXPECT_EQ(run({"dmr", trace}), 0);
}

TEST_F(InspectCli, LedgerFailsOnUnbalancedTrace) {
  // Same trace with half a joule of unledgered inflow.
  std::string bad = kBalancedTrace;
  const std::string needle = "\"solar_in_j\":1";
  bad.replace(bad.find(needle), needle.size(), "\"solar_in_j\":1.5");
  const std::string trace = write_temp("bad.jsonl", bad);
  EXPECT_EQ(run({"ledger", trace}), 1);
}

TEST_F(InspectCli, DiffReportsAgreementAndDivergence) {
  const std::string a = write_temp(
      "a.json", "{\"workload\": \"x\", \"seeds\": [1, 2]}");
  const std::string same = write_temp(
      "same.json", "{\"workload\": \"x\", \"seeds\": [1, 2]}");
  const std::string b = write_temp(
      "b.json", "{\"workload\": \"y\", \"seeds\": [1, 2]}");
  EXPECT_EQ(run({"diff", a, same}), 0);
  EXPECT_EQ(run({"diff", a, b}), 1);
}

TEST_F(InspectCli, CheckBenchExitCodes) {
  const std::string base = write_temp("base.json", bench_json(100.0, 40.0));
  const std::string twice = write_temp("2x.json", bench_json(200.0, 40.0));
  EXPECT_EQ(run({"check-bench", base, base}), 0);
  EXPECT_EQ(run({"check-bench", base, base, "--max-regress", "0"}), 0);
  EXPECT_EQ(run({"check-bench", base, twice}), 1);
  EXPECT_EQ(run({"check-bench", base, twice, "--max-regress", "120%"}), 0);
}

// check-bench accepts several old/new pairs in one invocation — the tier-1
// gate passes BENCH_pipeline.json and BENCH_ann.json together — and fails
// if any pair regresses.
TEST_F(InspectCli, CheckBenchGatesMultiplePairs) {
  const std::string runs = write_temp("mp_runs.json", bench_json(100.0, 40.0));
  const std::string kernels =
      write_temp("mp_kern.json", kernel_json(10000, 500));
  const std::string kernels_slow =
      write_temp("mp_kern_slow.json", kernel_json(5000, 500));
  EXPECT_EQ(run({"check-bench", runs, runs, kernels, kernels}), 0);
  EXPECT_EQ(run({"check-bench", runs, runs, kernels, kernels_slow}), 1);
  // An odd file count can't form pairs: usage error.
  EXPECT_EQ(run({"check-bench", runs, runs, kernels}), 2);
}

// Numeric flags are read to their end: a trailing letter, a sign or an
// out-of-range value is a usage error naming the flag and the token, never
// a silently used prefix or a wrapped 2^64-1.
TEST_F(InspectCli, NumericFlagsAreStrict) {
  const std::string trace = write_temp("strict.jsonl", kBalancedTrace);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "5x"}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "-1"}), 2);
  EXPECT_EQ(run({"ledger", trace, "--max-rows", "99999999999999999999"}), 2);
  EXPECT_EQ(run({"timeline", trace, "--trace-id", "0xabcz"}), 2);
  EXPECT_EQ(run({"timeline", trace, "--trace-id", "-7"}), 2);

  const std::string status = write_temp(
      "strict_status.json",
      R"({"status": "solsched-status-v2", "kind": "serve",
          "state": "running", "wall_ms": 5000000, "stale_after_ms": 5000})");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run({"serve", status, "--now-ms", "5x"}), 2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--now-ms"), std::string::npos) << err;
  EXPECT_NE(err.find("\"5x\""), std::string::npos) << err;
  EXPECT_EQ(run({"serve", status, "--now-ms", "-1"}), 2);
  // The reader's age bound is gone: the daemon declares its own window.
  EXPECT_EQ(run({"serve", status, "--max-age-ms", "1"}), 2);
  EXPECT_EQ(run({"serve", status, "--now-ms", "5005000"}), 0);
  EXPECT_EQ(run({"serve", status, "--now-ms", "5005001"}), 1);
}

TEST_F(InspectCli, UsageAndErrorExitCodes) {
  EXPECT_EQ(run({}), 2);
  EXPECT_EQ(run({"--help"}), 0);
  EXPECT_EQ(run({"no-such-command"}), 2);
  EXPECT_EQ(run({"summary"}), 2);                    // Missing argument.
  EXPECT_EQ(run({"summary", "/no/such/file"}), 2);   // I/O error.
  const std::string garbage = write_temp("garbage.json", "not json");
  EXPECT_EQ(run({"check-bench", garbage, garbage}), 2);
}

}  // namespace
}  // namespace solsched::obs::analysis

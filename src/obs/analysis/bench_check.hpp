// Bench regression gate (DESIGN.md §12).
//
// Compares a fresh bench result against the committed baseline and fails
// when a gated metric regressed beyond the allowed fraction. tier1.sh runs
// this through `solsched-inspect check-bench`, turning silent performance
// drift into a red CI phase. Two in-repo schemas are recognized by
// sniffing the document shape:
//
//  * pipeline (BENCH_pipeline.json): per run name under the "runs" object,
//    gating total_ms (required) and train_ms (where both sides report it);
//  * kernel (BENCH_ann.json): per (kernel, rows, cols) entry under the
//    "kernels" array, gating mflops (Gflop/s throughput; lower is worse) —
//    or ns_per_call for entries that report no flop count (e.g. sigmoid).
//
// Either way ratio is normalized so > 1 means "candidate is slower".
// Entries present on only one side are reported but never fail the gate
// (bench shape may legitimately evolve). The CLI accepts multiple
// baseline/candidate pairs in one invocation and fails if any pair fails.
#pragma once

#include <string>
#include <vector>

namespace solsched::obs::analysis {

/// One compared (run, metric) pair. For the pipeline schema total_ms is
/// always compared (and must be positive in the baseline); train_ms is
/// compared when both sides report a positive value, so the offline
/// training phase is gated independently of the total. For the kernel
/// schema the run key is "kernel[RxC]" and the metric is mflops (or
/// ns_per_call when the entry carries no flop count).
struct BenchDelta {
  std::string run;         ///< "fast_1t" or "gemv[64x128]".
  std::string metric;      ///< "total_ms", "train_ms", "mflops", ...
  double old_ms = 0.0;     ///< Baseline value (despite the _ms name).
  double new_ms = 0.0;     ///< Candidate value.
  double ratio = 0.0;      ///< Normalized so > 1 means slower.
  bool regressed = false;  ///< ratio > 1 + max_regress.
};

/// Outcome of a baseline comparison.
struct BenchCheckResult {
  bool ok = false;
  double max_regress = 0.0;              ///< The fraction actually applied.
  std::vector<BenchDelta> deltas;        ///< One per run name on both sides.
  std::vector<std::string> only_old;     ///< Runs missing from the new file.
  std::vector<std::string> only_new;     ///< Runs missing from the baseline.
  std::string message;                   ///< One-line verdict.
};

/// Parses "15%" or "0.15" into a fraction. Throws std::runtime_error on
/// malformed or negative input.
double parse_regress_fraction(const std::string& text);

/// Compares two bench documents of the same schema (pipeline "runs" or
/// kernel "kernels", sniffed from the baseline). `max_regress` is a
/// fraction (0.15 = allow 15% slower). Throws std::runtime_error when
/// either document is malformed, carries neither schema, or the two sides
/// disagree on schema.
BenchCheckResult check_bench(const std::string& old_json_text,
                             const std::string& new_json_text,
                             double max_regress);

}  // namespace solsched::obs::analysis

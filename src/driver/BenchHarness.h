//===- driver/BenchHarness.h - Parallel suite harness -----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `kremlin-bench` harness: runs the paper benchmark suite through the full
/// pipeline — the profiled programs fan out through parallelFor, each with its
/// own Interpreter + ShadowMemory + KremlinRuntime instance, so runs are
/// embarrassingly parallel — and collects every number of the paper's figures
/// and tables (PaperFigures.h) as a flat metric map. That map is what a
/// checked-in `bench/baseline.json` is written from and compared against, every
/// entry exactly (relative error at most 1e-9). Wall times and the run's shape
/// (threads, failures) live in a second map that only `BENCH_results.json`
/// receives, so no timing can reach the gate.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_DRIVER_BENCHHARNESS_H
#define KREMLIN_DRIVER_BENCHHARNESS_H

#include "support/Json.h"

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace kremlin {

/// Metric keys are "<benchmark>.<metric>" (e.g. "cg.plan_size") plus
/// whole-suite "suite.*" entries. An ordered map keeps emitted JSON and
/// comparison reports stable.
using MetricMap = std::map<std::string, double>;

/// Configuration for one suite run.
struct BenchSuiteOptions {
  /// Planner personality used for every benchmark.
  std::string PersonalityName = "openmp";
  /// Subset of paper benchmark names; empty = the full suite, which also
  /// profiles the programs only Figs. 2–3 and 5 and §4.4's cg sweep use.
  std::vector<std::string> Benchmarks;
  /// When set, each benchmark writes its speedscope profile to
  /// "<TraceDir>/<name>.speedscope.json". The directory is created.
  std::string TraceDir;
};

/// Per-benchmark completion record; serialized under "benchmarks" in
/// BENCH_results.json.
struct BenchmarkOutcome {
  std::string Name;
  /// "ok" or "failed".
  std::string Status = "ok";
  /// The error line when failed ("" otherwise).
  std::string Error;

  bool failed() const { return Status != "ok"; }
};

/// Everything one suite run produces. A failed program never aborts the
/// suite: its outcome is recorded, its metrics are absent, and the
/// remaining programs complete normally. A benchmark fails when either of
/// its runs (default or ref input) fails.
struct BenchSuiteResult {
  /// Every figure number: deterministic, independent of the thread count,
  /// and the only map the baseline is written from and compared against.
  MetricMap Metrics;
  /// How this run went: per-benchmark stage and total wall times
  /// ("<bench>.<stage>_wall_ms", "<bench>.wall_ms"), their suite totals
  /// ("suite.stage.<stage>_wall_ms", "suite.wall_ms"), "suite.threads" and
  /// "suite.failed". Written to BENCH_results.json only.
  MetricMap RunStats;
  /// One entry per requested benchmark, in request order, then one per
  /// figure-only program (full-suite runs).
  std::vector<BenchmarkOutcome> Outcomes;
  /// The fan-out's width: the CPUs this process may run on, at most one
  /// per program.
  unsigned ThreadsUsed = 1;
  /// Pipeline failures ("<bench>: <error>"); empty on success.
  std::vector<std::string> Errors;
  /// Every paper figure and table, rendered from Metrics.
  std::string Figures;

  bool succeeded() const { return Errors.empty(); }
  /// Names of benchmarks that failed (baseline-gating exclusion list).
  std::vector<std::string> failedBenchmarks() const;
};

/// Runs the suite, one program per parallelFor index; the results fold in
/// program order, so every number is independent of the fan-out's width.
BenchSuiteResult runBenchSuite(const BenchSuiteOptions &Opts);

/// Serializes a metric map as a results document:
///   {"schema": 1, "kind": <Kind>, "metrics": {...}}
std::string metricsToJson(const MetricMap &Metrics,
                          const std::string &Kind = "kremlin-bench");

/// Serializes a full suite result: the metricsToJson document of Metrics
/// and RunStats together plus a "benchmarks" object recording each
/// benchmark's completion status:
///   "benchmarks": {"cg": {"status": "ok"}, ...}
/// (failed entries additionally carry "error"). parseMetricsJson reads the
/// document unchanged — the extra object is ignored by metric consumers.
std::string suiteResultToJson(const BenchSuiteResult &Result);

/// Parses the "metrics" object out of a results or baseline document.
/// Returns false and fills \p Error on malformed input.
bool parseMetricsJson(std::string_view Json, MetricMap &Out,
                      std::string *Error = nullptr);

/// Serializes \p Metrics as a baseline document.
std::string makeBaselineJson(const MetricMap &Metrics);

/// The one gate rule: a baseline entry passes when the run's value is
/// within this relative error of it. Exact for every integer metric below
/// 1e9; derived floats get rounding room only.
constexpr double BaselineMaxRelError = 1e-9;

/// One compared metric.
struct MetricDelta {
  std::string Name;
  double Expected = 0.0;
  double Actual = 0.0;
  /// |actual - expected| / max(|expected|, 1e-12) for finite values; 0 for
  /// two equal non-finite values (NaN and NaN, or one infinity twice) and
  /// infinite for any other pair involving a non-finite value.
  double RelError = 0.0;
  /// A failed benchmark's metric (or suite.* while any benchmark failed):
  /// reported, never gated.
  bool Skipped = false;
  /// Metric present in the baseline but absent from the run.
  bool Missing = false;

  bool failed() const {
    return !Skipped && (Missing || RelError > BaselineMaxRelError);
  }
  /// The report line of a failed metric ("FAIL <name> ...").
  std::string render() const;
};

/// Result of comparing a run against a baseline.
struct BaselineComparison {
  std::vector<MetricDelta> Deltas;
  /// Baseline parse/shape problems; non-empty means the comparison could
  /// not run (and passed() is false).
  std::vector<std::string> Errors;
  unsigned NumChecked = 0;
  unsigned NumSkipped = 0;
  unsigned NumFailed = 0;

  bool passed() const { return Errors.empty() && NumFailed == 0; }

  /// Names of every gated metric that regressed, in baseline order.
  std::vector<std::string> failedMetricNames() const;

  /// Renders a human-readable report (failed metrics first).
  std::string render() const;
};

/// Compares \p Actual against a baseline document, every entry by the
/// BaselineMaxRelError rule. A document that still carries the retired
/// "default_tolerance" or "tolerances" field is refused with an error
/// naming it. \p ExcludeBenchmarks lists benchmarks whose metrics (name
/// before the first '.') are reported but not gated — the fault-isolation
/// path: a failed benchmark's missing metrics must not read as
/// regressions. Any exclusion also ungates the suite.* aggregates, which
/// then cover only part of the suite.
BaselineComparison
compareToBaseline(const MetricMap &Actual, std::string_view BaselineJson,
                  const std::vector<std::string> &ExcludeBenchmarks = {});

/// Renders a two-run metrics comparison (`kremlin stats --diff a b`):
/// every metric present in either map, sorted by |relative delta|
/// descending, with values and the relative change. Metrics present on
/// only one side are listed as added/removed.
std::string renderMetricsDiff(const MetricMap &A, const MetricMap &B);

} // namespace kremlin

#endif // KREMLIN_DRIVER_BENCHHARNESS_H

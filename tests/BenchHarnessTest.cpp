//===- tests/BenchHarnessTest.cpp - kremlin-bench harness tests -----------===//
//
// Covers the regression-baseline machinery end-to-end: run a (subset)
// suite through parallelFor, round-trip the metrics through JSON, and
// exercise the exact baseline comparison — including a deliberately
// regressed metric, which must fail the check.
//
//===----------------------------------------------------------------------===//

#include "driver/BenchHarness.h"

#include "TestUtil.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>

#include <unistd.h>

using namespace kremlin;

namespace {

/// Tests that arm fault injection restore a clean process on exit.
struct FaultGuard {
  ~FaultGuard() { fault::reset(); }
};

/// One small suite run shared by the tests (ep and cg are the two fastest
/// paper benchmarks).
const BenchSuiteResult &sharedRun() {
  static BenchSuiteResult Result = [] {
    BenchSuiteOptions Opts;
    Opts.Benchmarks = {"ep", "cg"};
    return runBenchSuite(Opts);
  }();
  return Result;
}

TEST(BenchHarness, SuiteRunProducesMetrics) {
  const BenchSuiteResult &R = sharedRun();
  ASSERT_TRUE(R.succeeded());
  // Four runs (ep and cg, each also at its ref input), one per CPU.
  EXPECT_EQ(R.ThreadsUsed, std::min(availableCpus(), 4u));
  // Every benchmark contributes its full metric family, one key per paper
  // figure family included: Figs. 6(b), 7, 8 and 9, §4.4, §5.1, §6.1,
  // §6.2 and the planner ablation.
  for (const char *Bench : {"ep", "cg"}) {
    for (const char *Key :
         {"dyn_instructions", "dyn_regions", "compression_ratio",
          "plan_size", "manual_plan_size", "plan_overlap", "est_speedup",
          "max_self_parallelism", "sim_speedup", "relative_speedup",
          "manual_sim_best_cores", "total_time_reduction_pct", "kremlin_plan_reduction_pct",
          "benefit_at_25pct", "benefit_at_100pct", "candidate_regions",
          "work_only_plan_size", "selfp_filter_plan_size",
          "raw_trace_bytes", "compressed_bytes", "dict_alphabet",
          "plan_size_at_min_sp_4", "plan_size_at_min_doall_0_2",
          "plan_size_at_min_doacross_4_5", "ref_plan_size",
          "ref_sim_speedup", "train_on_ref_sim_speedup",
          "train_on_ref_ratio", "regions", "low_by_total_parallelism",
          "low_by_self_parallelism", "greedy_plan_size",
          "greedy_sim_speedup", "cilk_plan_size"}) {
      std::string Name = std::string(Bench) + "." + Key;
      EXPECT_TRUE(R.Metrics.count(Name)) << "missing " << Name;
    }
    EXPECT_TRUE(R.RunStats.count(std::string(Bench) + ".wall_ms"));
  }
  EXPECT_EQ(R.Metrics.at("suite.benchmarks"), 2.0);
  EXPECT_GT(R.Metrics.at("ep.dyn_instructions"), 0.0);
  EXPECT_GE(R.Metrics.at("ep.max_self_parallelism"), 1.0);
}

TEST(BenchHarness, UnknownBenchmarkReportsError) {
  BenchSuiteOptions Opts;
  Opts.Benchmarks = {"no-such-benchmark"};
  BenchSuiteResult R = runBenchSuite(Opts);
  EXPECT_FALSE(R.succeeded());
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_TRUE(R.Outcomes[0].failed());
  EXPECT_NE(R.Outcomes[0].Error.find("unknown paper benchmark"),
            std::string::npos)
      << R.Outcomes[0].Error;
}

TEST(BenchHarness, FailedBenchmarkDoesNotAbortTheSuite) {
  // One benchmark's pipeline fails (unknown name); the others must still
  // complete and contribute their full metric families.
  BenchSuiteOptions Opts;
  Opts.Benchmarks = {"ep", "no-such-benchmark", "cg"};
  BenchSuiteResult R = runBenchSuite(Opts);
  EXPECT_FALSE(R.succeeded());
  ASSERT_EQ(R.Outcomes.size(), 3u);
  EXPECT_FALSE(R.Outcomes[0].failed());
  EXPECT_TRUE(R.Outcomes[1].failed());
  EXPECT_FALSE(R.Outcomes[2].failed());
  EXPECT_EQ(R.failedBenchmarks(),
            std::vector<std::string>{"no-such-benchmark"});
  EXPECT_TRUE(R.Metrics.count("ep.plan_size"));
  EXPECT_TRUE(R.Metrics.count("cg.plan_size"));
  EXPECT_EQ(R.RunStats.at("suite.failed"), 1.0);
}

TEST(BenchHarness, WorkerExceptionIsCaughtAtTheHarnessBoundary) {
  // KREMLIN_FAULT=bench_throw makes every worker throw; the harness must
  // record per-benchmark failures instead of letting the exception escape
  // parallelFor and abort the suite.
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("bench_throw"));
  BenchSuiteOptions Opts;
  Opts.Benchmarks = {"ep", "cg"};
  BenchSuiteResult R = runBenchSuite(Opts);
  fault::reset();

  EXPECT_FALSE(R.succeeded());
  ASSERT_EQ(R.Outcomes.size(), 2u);
  for (const BenchmarkOutcome &O : R.Outcomes) {
    EXPECT_TRUE(O.failed()) << O.Name;
    EXPECT_FALSE(O.Error.empty());
  }
  EXPECT_EQ(R.failedBenchmarks().size(), 2u);
  // Failed benchmarks contribute no (partial) metrics.
  EXPECT_FALSE(R.Metrics.count("ep.plan_size"));
  EXPECT_EQ(R.RunStats.at("suite.failed"), 2.0);
}

TEST(BenchHarness, StageFaultMarksBenchmarkFailed) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("stage:execute"));
  BenchSuiteOptions Opts;
  Opts.Benchmarks = {"ep"};
  BenchSuiteResult R = runBenchSuite(Opts);
  fault::reset();

  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_TRUE(R.Outcomes[0].failed());
  EXPECT_NE(R.Outcomes[0].Error.find("execute"), std::string::npos)
      << R.Outcomes[0].Error;

  // The JSON results document records the failure for consumers.
  std::string Json = suiteResultToJson(R);
  EXPECT_NE(Json.find("\"status\": \"failed\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"error\":"), std::string::npos);
}

TEST(BenchHarness, SuiteResultJsonRecordsOutcomes) {
  const BenchSuiteResult &R = sharedRun();
  std::string Json = suiteResultToJson(R);
  // Metric consumers read the document unchanged...
  MetricMap Parsed;
  std::string Error;
  ASSERT_TRUE(parseMetricsJson(Json, Parsed, &Error)) << Error;
  EXPECT_EQ(Parsed.size(), R.Metrics.size() + R.RunStats.size());
  // ...and the benchmarks object records per-benchmark completion.
  EXPECT_NE(Json.find("\"benchmarks\":"), std::string::npos);
  EXPECT_NE(Json.find("\"ep\":"), std::string::npos);
  EXPECT_NE(Json.find("\"status\": \"ok\""), std::string::npos) << Json;
}

TEST(BenchHarness, ExcludedBenchmarksAreInformationalInBaseline) {
  const BenchSuiteResult &R = sharedRun();
  std::string Baseline = makeBaselineJson(R.Metrics);

  // Simulate a run where cg failed: all its metrics are absent.
  MetricMap Partial;
  for (const auto &M : R.Metrics)
    if (M.first.rfind("cg.", 0) != 0)
      Partial[M.first] = M.second;

  // Without the exclusion the missing metrics read as regressions...
  EXPECT_FALSE(compareToBaseline(Partial, Baseline).passed());
  // ...with it, the failed benchmark is reported but not gated, and the
  // rest of the suite still gates normally.
  BaselineComparison Cmp = compareToBaseline(Partial, Baseline, {"cg"});
  EXPECT_TRUE(Cmp.passed()) << Cmp.render();
  EXPECT_GT(Cmp.NumSkipped, 0u);

  // An ep regression still fails even while cg is excluded.
  MetricMap Regressed = Partial;
  Regressed["ep.plan_size"] *= 2.0;
  EXPECT_FALSE(compareToBaseline(Regressed, Baseline, {"cg"}).passed());

  // The suite.* aggregates of a run without cg cover ep alone: none may
  // read as a regression, nor as missing when every benchmark failed.
  BenchSuiteOptions EpOnly;
  EpOnly.Benchmarks = {"ep"};
  MetricMap Aggregated = runBenchSuite(EpOnly).Metrics;
  EXPECT_NE(Aggregated.at("suite.plan_size"), R.Metrics.at("suite.plan_size"));
  Cmp = compareToBaseline(Aggregated, Baseline, {"cg"});
  EXPECT_TRUE(Cmp.passed()) << Cmp.render();
  MetricMap NoSuite;
  for (const auto &M : Aggregated)
    if (M.first.rfind("suite.", 0) != 0)
      NoSuite[M.first] = M.second;
  Cmp = compareToBaseline(NoSuite, Baseline, {"cg"});
  EXPECT_TRUE(Cmp.passed()) << Cmp.render();
  for (const MetricDelta &D : Cmp.Deltas) {
    if (D.Name.rfind("suite.", 0) == 0) {
      EXPECT_TRUE(D.Skipped) << D.Name;
    }
  }
}

TEST(BenchHarness, MetricsDiffRendersChanges) {
  MetricMap A = {{"a.x", 10.0}, {"a.y", 5.0}, {"gone.z", 1.0}};
  MetricMap B = {{"a.x", 12.0}, {"a.y", 5.0}, {"new.w", 2.0}};
  std::string Diff = renderMetricsDiff(A, B);
  EXPECT_NE(Diff.find("a.x"), std::string::npos);
  EXPECT_NE(Diff.find("+20.00%"), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("gone.z"), std::string::npos);
  EXPECT_NE(Diff.find("removed"), std::string::npos);
  EXPECT_NE(Diff.find("new.w"), std::string::npos);
  EXPECT_NE(Diff.find("added"), std::string::npos);
  // Unchanged metrics are elided from the table.
  EXPECT_EQ(Diff.find("a.y"), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("3 of 4 metrics differ"), std::string::npos) << Diff;
}

TEST(BenchHarness, TimingsStayOutOfTheGatedMetrics) {
  // Wall times and the run's shape go to BENCH_results.json only; the map
  // the baseline is written from and gated against holds none of them.
  const BenchSuiteResult &R = sharedRun();
  for (const auto &M : R.Metrics) {
    EXPECT_EQ(M.first.find("wall_ms"), std::string::npos) << M.first;
    EXPECT_NE(M.first, "suite.threads");
    EXPECT_NE(M.first, "suite.failed");
  }
  EXPECT_EQ(makeBaselineJson(R.Metrics).find("wall_ms"), std::string::npos);
  MetricMap Results;
  ASSERT_TRUE(parseMetricsJson(suiteResultToJson(R), Results));
  for (const char *Key :
       {"ep.execute_wall_ms", "cg.analyze_wall_ms", "ep.wall_ms",
        "suite.stage.execute_wall_ms", "suite.wall_ms", "suite.threads",
        "suite.failed"}) {
    EXPECT_TRUE(R.RunStats.count(Key)) << Key;
    EXPECT_TRUE(Results.count(Key)) << Key;
  }
  EXPECT_DOUBLE_EQ(R.RunStats.at("suite.stage.execute_wall_ms"),
                   R.RunStats.at("ep.execute_wall_ms") +
                       R.RunStats.at("cg.execute_wall_ms"));
}

TEST(BenchHarness, ProgramSpansEncloseTheirStageSpans) {
  // Every run records one bench.program span, and its pipeline's stage
  // spans sit inside it on the same thread, whichever thread parallelFor
  // gave the run. The trace directory receives speedscope profiles only.
  namespace tel = kremlin::telemetry;
  BenchSuiteOptions Opts;
  Opts.Benchmarks = {"ep", "cg"};
  Opts.TraceDir = ::testing::TempDir() + "/kremlin_bench_traces_" +
                  std::to_string(::getpid());
  std::filesystem::remove_all(Opts.TraceDir);
  std::vector<tel::TraceEvent> Events;
  {
    test::TraceCapture Capture;
    ASSERT_TRUE(runBenchSuite(Opts).succeeded());
    Events = Capture.take();
  }

  std::vector<const tel::TraceEvent *> Runs, Stages;
  for (const tel::TraceEvent &E : Events) {
    if (E.K != tel::TraceEvent::Kind::Span)
      continue;
    if (E.Name == "bench.program")
      Runs.push_back(&E);
    else if (E.Category == "pipeline")
      Stages.push_back(&E);
  }
  std::multiset<std::string> Labels;
  const std::vector<std::string> StageOrder = {
      "parse",   "lower",   "verify",   "instrument",
      "analyze", "execute", "compress", "plan"};
  for (const tel::TraceEvent *Run : Runs) {
    auto Arg = std::find_if(Run->Args.begin(), Run->Args.end(),
                            [](const auto &A) { return A.first == "program"; });
    ASSERT_NE(Arg, Run->Args.end());
    Labels.insert(Arg->second);
    std::vector<std::pair<uint64_t, std::string>> Inside;
    for (const tel::TraceEvent *S : Stages)
      if (S->Tid == Run->Tid && S->TimeUs >= Run->TimeUs &&
          S->TimeUs + S->DurUs <= Run->TimeUs + Run->DurUs)
        Inside.emplace_back(S->TimeUs, S->Name);
    std::stable_sort(Inside.begin(), Inside.end(),
                     [](const auto &X, const auto &Y) {
                       return X.first < Y.first;
                     });
    std::vector<std::string> Names;
    for (const auto &[TimeUs, Name] : Inside)
      Names.push_back(Name);
    EXPECT_EQ(Names, StageOrder) << Arg->second;
  }
  EXPECT_EQ(Labels,
            (std::multiset<std::string>{"ep", "cg", "ep (4x ref input)",
                                        "cg (4x ref input)"}));
  EXPECT_EQ(Stages.size(), Runs.size() * StageOrder.size());

  std::set<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Opts.TraceDir))
    Files.insert(Entry.path().filename().string());
  EXPECT_EQ(Files, (std::set<std::string>{"cg.speedscope.json",
                                          "ep.speedscope.json"}));
  for (const std::string &File : Files) {
    std::string Json, Error;
    ASSERT_TRUE(readFileToString(Opts.TraceDir + "/" + File, Json));
    JsonValue Doc;
    ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
    EXPECT_GT(Doc.get("shared")->get("frames")->size(), 0u) << File;
  }
  std::filesystem::remove_all(Opts.TraceDir);
}

TEST(BenchHarness, ParseReadsNullMetricsAsNaN) {
  // The serializer writes non-finite doubles as JSON null; reading such a
  // snapshot back must yield NaN, not a parse error.
  MetricMap Out;
  std::string Error;
  ASSERT_TRUE(parseMetricsJson(
      "{\"metrics\": {\"a.rate\": null, \"a.work\": 3}}", Out, &Error))
      << Error;
  ASSERT_TRUE(Out.count("a.rate"));
  EXPECT_TRUE(std::isnan(Out.at("a.rate")));
  EXPECT_DOUBLE_EQ(Out.at("a.work"), 3.0);
}

TEST(BenchHarness, MetricsDiffRendersNonFiniteAsNa) {
  MetricMap A = {{"a.x", 10.0},
                 {"a.nan", std::numeric_limits<double>::quiet_NaN()},
                 {"a.inf", std::numeric_limits<double>::infinity()}};
  MetricMap B = {{"a.x", 10.0}, {"a.nan", 2.0}, {"a.inf", 5.0}};
  std::string Diff = renderMetricsDiff(A, B);
  // Non-finite rows are listed with an n/a delta instead of a bogus
  // percentage (and must not crash the sort).
  EXPECT_NE(Diff.find("a.nan"), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("a.inf"), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("n/a"), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("2 of 3 metrics differ"), std::string::npos) << Diff;
}

TEST(BenchHarness, MetricsDiffOfIdenticalMapsIsQuiet) {
  MetricMap A = {{"a.x", 10.0}};
  std::string Diff = renderMetricsDiff(A, A);
  EXPECT_NE(Diff.find("0 of 1 metrics differ"), std::string::npos) << Diff;
}

TEST(BenchHarness, MetricsDiffHandlesServeCountersAppearing) {
  // A snapshot taken before `kremlin serve` existed diffed against one
  // taken after: the serve.*/merge.* families are one-sided. They must
  // render as clean "added" rows — never as n/a (that marker is reserved
  // for non-finite values) — and pre-existing metrics still diff normally.
  MetricMap Before = {{"rt.dyn_instructions", 1000.0}, {"dict.hits", 50.0}};
  MetricMap After = {{"rt.dyn_instructions", 1000.0},
                     {"dict.hits", 60.0},
                     {"serve.requests", 41.0},
                     {"serve.cache.hits", 17.0},
                     {"serve.cache.misses", 4.0},
                     {"merge.profiles_in", 3.0},
                     {"merge.alphabet_new", 120.0}};
  std::string Diff = renderMetricsDiff(Before, After);
  for (const char *Name : {"serve.requests", "serve.cache.hits",
                           "serve.cache.misses", "merge.profiles_in",
                           "merge.alphabet_new"})
    EXPECT_NE(Diff.find(Name), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("added"), std::string::npos) << Diff;
  EXPECT_EQ(Diff.find("n/a"), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("+20.00%"), std::string::npos) << Diff; // dict.hits
  EXPECT_EQ(Diff.find("rt.dyn_instructions"), std::string::npos) << Diff;
  EXPECT_NE(Diff.find("6 of 7 metrics differ"), std::string::npos) << Diff;

  // The reverse direction (serve counters vanishing, e.g. diffing against
  // a run without traffic) reads as removals, still no n/a rows.
  std::string Reverse = renderMetricsDiff(After, Before);
  EXPECT_NE(Reverse.find("removed"), std::string::npos) << Reverse;
  EXPECT_EQ(Reverse.find("n/a"), std::string::npos) << Reverse;
}

TEST(BenchHarness, MetricsJsonRoundTrips) {
  const BenchSuiteResult &R = sharedRun();
  std::string Json = metricsToJson(R.Metrics);

  MetricMap Parsed;
  std::string Error;
  ASSERT_TRUE(parseMetricsJson(Json, Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.size(), R.Metrics.size());
  for (const auto &M : R.Metrics)
    EXPECT_DOUBLE_EQ(Parsed.at(M.first), M.second) << M.first;
}

TEST(BenchHarness, ParseRejectsMalformedDocuments) {
  MetricMap Out;
  std::string Error;
  EXPECT_FALSE(parseMetricsJson("{\"metrics\": [1,2]}", Out, &Error));
  EXPECT_FALSE(parseMetricsJson("{}", Out, &Error));
  EXPECT_FALSE(parseMetricsJson("not json", Out, &Error));
  EXPECT_FALSE(
      parseMetricsJson("{\"metrics\": {\"a\": \"str\"}}", Out, &Error));
}

TEST(BenchHarness, FreshBaselineComparesClean) {
  const BenchSuiteResult &R = sharedRun();
  std::string Baseline = makeBaselineJson(R.Metrics);
  BaselineComparison Cmp = compareToBaseline(R.Metrics, Baseline);
  EXPECT_TRUE(Cmp.passed()) << Cmp.render();
  EXPECT_EQ(Cmp.NumFailed, 0u);
  // Every entry is gated.
  EXPECT_EQ(Cmp.NumChecked, R.Metrics.size());
  EXPECT_EQ(Cmp.NumSkipped, 0u);
}

TEST(BenchHarness, InjectedRegressionFailsTheCheck) {
  const BenchSuiteResult &R = sharedRun();
  std::string Baseline = makeBaselineJson(R.Metrics);

  MetricMap Regressed = R.Metrics;
  Regressed["cg.plan_size"] *= 2.0; // The deliberate 2x regression.
  BaselineComparison Cmp = compareToBaseline(Regressed, Baseline);
  EXPECT_FALSE(Cmp.passed());
  EXPECT_EQ(Cmp.NumFailed, 1u);

  bool Found = false;
  for (const MetricDelta &D : Cmp.Deltas)
    if (D.failed()) {
      EXPECT_EQ(D.Name, "cg.plan_size");
      Found = true;
    }
  EXPECT_TRUE(Found);
  EXPECT_NE(Cmp.render().find("cg.plan_size"), std::string::npos);
  EXPECT_NE(Cmp.render().find("REGRESSION"), std::string::npos);
}

TEST(BenchHarness, MissingMetricFailsTheCheck) {
  const BenchSuiteResult &R = sharedRun();
  std::string Baseline = makeBaselineJson(R.Metrics);
  MetricMap Partial = R.Metrics;
  Partial.erase("ep.plan_size");
  BaselineComparison Cmp = compareToBaseline(Partial, Baseline);
  EXPECT_FALSE(Cmp.passed());
}

TEST(BenchHarness, DefaultGateIsExactForIntegerMetrics) {
  // The largest integer metric (sp.dyn_instructions) is below 1e9, so the
  // default relative tolerance of 1e-9 fails any change of one.
  const BenchSuiteResult &R = sharedRun();
  MetricMap OneHigher = R.Metrics;
  OneHigher["cg.dyn_instructions"] += 1.0;
  BaselineComparison Cmp =
      compareToBaseline(R.Metrics, makeBaselineJson(OneHigher));
  EXPECT_FALSE(Cmp.passed()) << Cmp.render();
  EXPECT_EQ(Cmp.failedMetricNames(),
            std::vector<std::string>{"cg.dyn_instructions"});
}

TEST(BenchHarness, NonFiniteMetricFailsTheGate) {
  // The serializer writes NaN and infinities as null, read back as NaN.
  // NaN compares false against any bound, so a NaN relative error must
  // not read as a pass: a non-finite value on one side only, or two
  // different non-finite values, fails.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  auto Gate = [](double Got, const std::string &Baseline) {
    return compareToBaseline({{"ep.plan_size", Got}},
                             R"({"metrics": {"ep.plan_size": )" + Baseline +
                                 "}}");
  };
  for (const auto &[Got, Baseline] :
       std::vector<std::pair<double, std::string>>{
           {NaN, "1"}, {5.0, "null"}, {Inf, "1"}, {Inf, "null"}}) {
    BaselineComparison Cmp = Gate(Got, Baseline);
    EXPECT_FALSE(Cmp.passed()) << Got << " vs " << Baseline;
    EXPECT_NE(Cmp.render().find("FAIL ep.plan_size"), std::string::npos)
        << Cmp.render();
  }
  // The same non-finite value on both sides is no change.
  EXPECT_TRUE(Gate(NaN, "null").passed());
}

TEST(BenchHarness, RetiredToleranceFieldsAreRefused) {
  // A baseline that carries a tolerance field is an error naming the
  // field, not a silently looser or tighter gate.
  MetricMap Actual = {{"a.plan_size", 10.0}};
  for (const char *Field : {"default_tolerance", "tolerances"}) {
    std::string Baseline = std::string(R"({"schema": 1, ")") + Field +
                           R"(": 0.02, "metrics": {"a.plan_size": 10}})";
    BaselineComparison Cmp = compareToBaseline(Actual, Baseline);
    EXPECT_FALSE(Cmp.passed()) << Field;
    ASSERT_EQ(Cmp.Errors.size(), 1u) << Field;
    EXPECT_NE(Cmp.Errors[0].find(Field), std::string::npos) << Cmp.Errors[0];
    EXPECT_NE(Cmp.render().find(Field), std::string::npos) << Cmp.render();
  }
}

TEST(BenchHarness, MalformedBaselineIsAnError) {
  MetricMap Actual = {{"a.b", 1.0}};
  BaselineComparison Cmp = compareToBaseline(Actual, "{broken");
  EXPECT_FALSE(Cmp.passed());
  EXPECT_FALSE(Cmp.Errors.empty());
}

} // namespace

//===- driver/BenchHarness.cpp --------------------------------------------===//

#include "driver/BenchHarness.h"

#include "driver/PaperFigures.h"
#include "report/ProfileExport.h"
#include "suite/PaperSuite.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>

using namespace kremlin;

namespace {

struct BenchTaskResult {
  MetricMap Metrics;
  MetricMap RunStats;
  Listings Text;
  BenchmarkOutcome Outcome;
  std::vector<std::string> Errors;
  /// The run itself, kept for §6.1 (benchmark and ref-input runs only).
  std::unique_ptr<DriverResult> Run;

  /// Marks this run failed: its numbers are dropped (partial numbers must
  /// not flow into results or baseline gating) and the error is recorded
  /// both per-outcome and as a suite error line.
  void fail(const std::string &Label, std::string Error) {
    Metrics.clear();
    RunStats.clear();
    Text.clear();
    Run.reset();
    Outcome.Status = "failed";
    Outcome.Error = Error;
    Errors.push_back(Label + ": " + std::move(Error));
  }
};

/// Names a run in error lines: a ref-input run reports under its
/// benchmark's outcome but says which run failed.
std::string runLabel(const FigureProgram &P) {
  return P.K == FigureProgram::Kind::RefInput ? P.Name + " (4x ref input)"
                                              : P.Name;
}

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Profiles one program through a private pipeline instance and reads
/// its figures off the run. Each call constructs its own KremlinDriver, and
/// through it its own Interpreter, ShadowMemory, and KremlinRuntime — no
/// state is shared between concurrent calls. One bench.program span
/// encloses the run's stage spans, which all sit on the calling thread;
/// its label tells a benchmark's train and ref-input runs apart.
BenchTaskResult runOneProgram(const FigureProgram &P,
                              const BenchSuiteOptions &Opts) {
  telemetry::Span ProgramSpan("bench.program", "bench");
  ProgramSpan.arg("program", runLabel(P));
  BenchTaskResult Out;
  Out.Outcome.Name = P.Name;
  auto Start = std::chrono::steady_clock::now();

  Expected<GeneratedBenchmark> GB = figureSource(P);
  if (!GB.ok()) {
    Out.fail(runLabel(P), GB.status().toString());
    return Out;
  }

  DriverOptions DriverOpts;
  DriverOpts.PersonalityName = Opts.PersonalityName;
  KremlinDriver Driver(std::move(DriverOpts));
  auto R = std::make_unique<DriverResult>(
      Driver.runOnSource(GB->Source, GB->Name + ".c"));
  if (!R->succeeded()) {
    // The structured status names the failed stage and input; extra parse
    // diagnostics ride along as suite error lines.
    Out.fail(runLabel(P), R->Err.ok() ? R->Errors.front() : R->Err.toString());
    for (size_t E = 1; E < R->Errors.size(); ++E)
      Out.Errors.push_back(runLabel(P) + ": " + R->Errors[E]);
    return Out;
  }
  addRunFigures(P, *GB, *R, Opts.PersonalityName, Out.Metrics, Out.Text);

  if (P.K == FigureProgram::Kind::Benchmark) {
    const std::string &Name = P.Name;
    // Per-stage wall clock from the driver: "<bench>.<stage>_wall_ms".
    for (const auto &[StageName, Ms] : R->StageMs)
      Out.RunStats[Name + "." + StageName + "_wall_ms"] = Ms;

    if (!Opts.TraceDir.empty() &&
        !writeStringToFile(Opts.TraceDir + "/" + Name + ".speedscope.json",
                           report::renderView(*R->Profile, *R->Dict,
                                              "speedscope", Name)
                               .takeValue()))
      telemetry::logf(telemetry::LogLevel::Warn, "bench",
                      "cannot write a speedscope profile under '%s'",
                      Opts.TraceDir.c_str());
    Out.RunStats[Name + ".wall_ms"] = elapsedMs(Start);
  }
  if (P.K == FigureProgram::Kind::Benchmark ||
      P.K == FigureProgram::Kind::RefInput)
    Out.Run = std::move(R);
  return Out;
}

/// The harness worker boundary: a C++ exception from one run is caught
/// and recorded as that run's failure, so it never reaches parallelFor and
/// the sibling runs complete.
BenchTaskResult runGuarded(const FigureProgram &P,
                           const BenchSuiteOptions &Opts) {
  BenchTaskResult Out;
  try {
    if (fault::enabled() && fault::shouldFail(fault::Site::BenchThrow))
      throw std::runtime_error("injected bench worker exception "
                               "(KREMLIN_FAULT=" +
                               fault::activeSpec() + ")");
    return runOneProgram(P, Opts);
  } catch (const std::exception &E) {
    Out.fail(runLabel(P), Status::error(ErrorCode::ExecutionError, E.what())
                              .withInput(P.Name)
                              .toString());
  } catch (...) {
    Out.fail(runLabel(P),
             Status::error(ErrorCode::ExecutionError,
                           "non-standard exception from bench worker")
                 .withInput(P.Name)
                 .toString());
  }
  Out.Outcome.Name = P.Name;
  return Out;
}

} // namespace

std::vector<std::string> BenchSuiteResult::failedBenchmarks() const {
  std::vector<std::string> Names;
  for (const BenchmarkOutcome &O : Outcomes)
    if (O.failed())
      Names.push_back(O.Name);
  return Names;
}

BenchSuiteResult kremlin::runBenchSuite(const BenchSuiteOptions &Opts) {
  BenchSuiteResult Result;
  auto Start = std::chrono::steady_clock::now();

  std::vector<std::string> Names =
      Opts.Benchmarks.empty() ? paperBenchmarkNames() : Opts.Benchmarks;

  if (!Opts.TraceDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.TraceDir, EC);
    if (EC)
      telemetry::logf(telemetry::LogLevel::Warn, "bench",
                      "cannot create trace directory '%s': %s",
                      Opts.TraceDir.c_str(), EC.message().c_str());
  }

  std::vector<FigureProgram> Programs =
      figurePrograms(Names, Opts.Benchmarks.empty());
  std::vector<BenchTaskResult> Tasks(Programs.size());
  parallelFor(Programs.size(), [&](size_t I) {
    Tasks[I] = runGuarded(Programs[I], Opts);
  });
  // parallelFor runs on the caller and one helper per further CPU.
  Result.ThreadsUsed = static_cast<unsigned>(
      std::clamp<size_t>(Programs.size(), 1, availableCpus()));

  // A benchmark's two runs share one outcome: it fails when either does,
  // and then contributes no numbers at all.
  struct Pending {
    size_t Outcome;
    MetricMap Metrics, RunStats;
    Listings Text;
    std::unique_ptr<DriverResult> Train, Ref;
  };
  std::map<std::string, Pending> ByName;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    BenchTaskResult &Task = Tasks[I];
    auto [It, New] = ByName.try_emplace(Programs[I].Name);
    Pending &P = It->second;
    if (New) {
      P.Outcome = Result.Outcomes.size();
      Result.Outcomes.push_back(Task.Outcome);
    }
    BenchmarkOutcome &O = Result.Outcomes[P.Outcome];
    if (Task.Outcome.failed() && !O.failed()) {
      O.Status = Task.Outcome.Status;
      O.Error = Task.Outcome.Error;
    }
    Result.Errors.insert(Result.Errors.end(), Task.Errors.begin(),
                         Task.Errors.end());
    P.Metrics.merge(Task.Metrics);
    P.RunStats.merge(Task.RunStats);
    P.Text.merge(Task.Text);
    (Programs[I].K == FigureProgram::Kind::RefInput ? P.Ref : P.Train) =
        std::move(Task.Run);
  }
  Listings Text;
  for (auto &[Name, P] : ByName) {
    if (Result.Outcomes[P.Outcome].failed())
      continue;
    if (P.Train && P.Ref)
      addInputSensitivity(Name, *P.Train, *P.Ref, P.Metrics);
    Result.Metrics.merge(P.Metrics);
    Result.RunStats.merge(P.RunStats);
    Text.merge(P.Text);
  }

  // Whole-suite per-stage totals: where the pipeline spends its time
  // across all benchmarks ("suite.stage.<stage>_wall_ms").
  MetricMap StageTotals;
  for (const auto &M : Result.RunStats) {
    std::string Stage = M.first.substr(M.first.find('.') + 1);
    if (Stage != "wall_ms")
      StageTotals["suite.stage." + Stage] += M.second;
  }
  Result.RunStats.merge(StageTotals);

  addSuiteFigures(Names, Result.Metrics);
  Result.Figures = renderFigures(Names, Result.Metrics, Text);
  Result.Metrics["suite.benchmarks"] = static_cast<double>(Names.size());
  Result.RunStats["suite.failed"] =
      static_cast<double>(Result.failedBenchmarks().size());
  Result.RunStats["suite.threads"] = Result.ThreadsUsed;
  Result.RunStats["suite.wall_ms"] = elapsedMs(Start);
  return Result;
}

std::string kremlin::suiteResultToJson(const BenchSuiteResult &Result) {
  JsonValue Doc = JsonValue::makeObject();
  Doc.set("schema", JsonValue(1));
  Doc.set("kind", JsonValue("kremlin-bench"));
  JsonValue Map = JsonValue::makeObject();
  for (const MetricMap *Part : {&Result.Metrics, &Result.RunStats})
    for (const auto &M : *Part)
      Map.set(M.first, JsonValue(M.second));
  Doc.set("metrics", std::move(Map));
  JsonValue Benchmarks = JsonValue::makeObject();
  for (const BenchmarkOutcome &O : Result.Outcomes) {
    JsonValue Entry = JsonValue::makeObject();
    Entry.set("status", JsonValue(O.Status));
    if (O.failed())
      Entry.set("error", JsonValue(O.Error));
    Benchmarks.set(O.Name, std::move(Entry));
  }
  Doc.set("benchmarks", std::move(Benchmarks));
  return Doc.serialize() + "\n";
}

std::string kremlin::metricsToJson(const MetricMap &Metrics,
                                   const std::string &Kind) {
  JsonValue Doc = JsonValue::makeObject();
  Doc.set("schema", JsonValue(1));
  Doc.set("kind", JsonValue(Kind));
  JsonValue Map = JsonValue::makeObject();
  for (const auto &M : Metrics)
    Map.set(M.first, JsonValue(M.second));
  Doc.set("metrics", std::move(Map));
  return Doc.serialize() + "\n";
}

bool kremlin::parseMetricsJson(std::string_view Json, MetricMap &Out,
                               std::string *Error) {
  JsonValue Doc;
  if (!JsonValue::parse(Json, Doc, Error))
    return false;
  const JsonValue *Map = Doc.get("metrics");
  if (!Map || !Map->isObject()) {
    if (Error)
      *Error = "document has no \"metrics\" object";
    return false;
  }
  Out.clear();
  for (const auto &M : Map->members()) {
    // The serializer writes non-finite doubles as JSON null (there is no
    // NaN literal); read them back as NaN so such snapshots stay
    // diffable instead of rejecting the whole document.
    if (M.second.isNull()) {
      Out[M.first] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    if (!M.second.isNumber()) {
      if (Error)
        *Error = "metric \"" + M.first + "\" is not a number";
      return false;
    }
    Out[M.first] = M.second.asNumber();
  }
  return true;
}

std::string kremlin::makeBaselineJson(const MetricMap &Metrics) {
  return metricsToJson(Metrics, "kremlin-bench-baseline");
}

BaselineComparison
kremlin::compareToBaseline(const MetricMap &Actual,
                           std::string_view BaselineJson,
                           const std::vector<std::string> &ExcludeBenchmarks) {
  BaselineComparison Cmp;

  JsonValue Doc;
  std::string Error;
  if (!JsonValue::parse(BaselineJson, Doc, &Error)) {
    Cmp.Errors.push_back("baseline: " + Error);
    return Cmp;
  }
  // Older baselines carried per-suffix tolerances; honouring them would
  // loosen the one gate rule, and ignoring them would hide that the file
  // predates it.
  for (const char *Field : {"default_tolerance", "tolerances"})
    if (Doc.get(Field))
      Cmp.Errors.push_back(formatString(
          "baseline: field \"%s\" is no longer supported (every metric is "
          "gated at relative error %g; refresh with --update-baseline)",
          Field, BaselineMaxRelError));
  MetricMap Expected;
  if (!parseMetricsJson(BaselineJson, Expected, &Error))
    Cmp.Errors.push_back("baseline: " + Error);
  if (!Cmp.Errors.empty())
    return Cmp;

  for (const auto &E : Expected) {
    MetricDelta Delta;
    Delta.Name = E.first;
    Delta.Expected = E.second;

    // A failed benchmark contributes no metrics; gating its baseline
    // entries would double-report the failure as spurious regressions.
    // The suite aggregates then cover only the benchmarks that ran.
    if (!ExcludeBenchmarks.empty()) {
      std::string Prefix = E.first.substr(0, E.first.find('.'));
      Delta.Skipped = Prefix == "suite" ||
                      std::find(ExcludeBenchmarks.begin(),
                                ExcludeBenchmarks.end(),
                                Prefix) != ExcludeBenchmarks.end();
    }

    auto It = Actual.find(E.first);
    if (It == Actual.end()) {
      Delta.Missing = true;
    } else {
      Delta.Actual = It->second;
      if (std::isfinite(Delta.Actual) && std::isfinite(Delta.Expected))
        Delta.RelError = std::fabs(Delta.Actual - Delta.Expected) /
                         std::max(std::fabs(Delta.Expected), 1e-12);
      else if (std::isnan(Delta.Actual) ? !std::isnan(Delta.Expected)
                                        : Delta.Actual != Delta.Expected)
        Delta.RelError = HUGE_VAL; // NaN never compares, so test by kind.
    }

    if (Delta.Skipped)
      ++Cmp.NumSkipped;
    else {
      ++Cmp.NumChecked;
      if (Delta.failed())
        ++Cmp.NumFailed;
    }
    Cmp.Deltas.push_back(std::move(Delta));
  }
  return Cmp;
}

std::string kremlin::renderMetricsDiff(const MetricMap &A, const MetricMap &B) {
  struct DiffRow {
    std::string Name;
    const double *Old = nullptr;
    const double *New = nullptr;
    double Rel = 0.0; ///< |relative delta|; HUGE_VAL for added/removed.
  };
  std::vector<DiffRow> Rows;
  for (const auto &M : A) {
    DiffRow Row;
    Row.Name = M.first;
    Row.Old = &M.second;
    auto It = B.find(M.first);
    if (It != B.end()) {
      Row.New = &It->second;
      // Non-finite values have no meaningful relative delta; pin Rel to
      // HUGE_VAL (NaN here would break the sort's strict weak ordering)
      // and render the row as "n/a" below.
      if (!std::isfinite(M.second) || !std::isfinite(It->second))
        Row.Rel = HUGE_VAL;
      else
        Row.Rel = std::fabs(It->second - M.second) /
                  std::max(std::fabs(M.second), 1e-12);
    } else {
      Row.Rel = HUGE_VAL;
    }
    Rows.push_back(std::move(Row));
  }
  for (const auto &M : B)
    if (!A.count(M.first)) {
      DiffRow Row;
      Row.Name = M.first;
      Row.New = &M.second;
      Row.Rel = HUGE_VAL;
      Rows.push_back(std::move(Row));
    }

  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const DiffRow &X, const DiffRow &Y) {
                     return X.Rel > Y.Rel;
                   });

  TablePrinter Table;
  Table.setHeader({"metric", "a", "b", "delta"});
  unsigned Changed = 0;
  for (const DiffRow &Row : Rows) {
    std::string OldS = Row.Old ? formatJsonNumber(*Row.Old) : "-";
    std::string NewS = Row.New ? formatJsonNumber(*Row.New) : "-";
    std::string DeltaS;
    if (!Row.Old)
      DeltaS = "added";
    else if (!Row.New)
      DeltaS = "removed";
    else if (!std::isfinite(*Row.Old) || !std::isfinite(*Row.New))
      DeltaS = "n/a"; // NaN/inf metric: listed, never formatted as %.
    else if (Row.Rel == 0.0)
      continue; // Unchanged rows would drown the signal.
    else
      DeltaS = formatString("%+.2f%%", (*Row.New - *Row.Old) * 100.0 /
                                           std::max(std::fabs(*Row.Old),
                                                    1e-12));
    ++Changed;
    Table.addRow({Row.Name, OldS, NewS, DeltaS});
  }
  std::string Out = Table.render();
  Out += formatString("%u of %zu metrics differ\n", Changed, Rows.size());
  return Out;
}

std::string MetricDelta::render() const {
  if (Missing)
    return formatString("FAIL %-34s missing from run (baseline %s)\n",
                        Name.c_str(), formatJsonNumber(Expected).c_str());
  return formatString("FAIL %-34s baseline %-12s got %-12s (%.3g%% off)\n",
                      Name.c_str(), formatJsonNumber(Expected).c_str(),
                      formatJsonNumber(Actual).c_str(), RelError * 100.0);
}

std::vector<std::string> BaselineComparison::failedMetricNames() const {
  std::vector<std::string> Names;
  for (const MetricDelta &D : Deltas)
    if (D.failed())
      Names.push_back(D.Name);
  return Names;
}

std::string BaselineComparison::render() const {
  std::string Out;
  for (const std::string &E : Errors)
    Out += "error: " + E + "\n";
  if (!Errors.empty())
    return Out;

  for (const MetricDelta &D : Deltas)
    if (D.failed())
      Out += D.render();
  Out += formatString("baseline: %u checked, %u failed, %u skipped\n",
                      NumChecked, NumFailed, NumSkipped);
  Out += passed() ? "baseline: PASS\n" : "baseline: REGRESSION\n";
  return Out;
}

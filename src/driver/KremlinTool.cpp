//===- driver/KremlinTool.cpp - The kremlin command-line tool -------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Command-line front end mirroring the paper's Figure 3 workflow:
//
//   kremlin prog.c --personality=openmp            profile + print the plan
//   kremlin prog.c --profile                       also dump per-region rows
//   kremlin prog.c --dump-ir                       compile + instrument only
//   kremlin prog.c --exclude=12,17                 exclusion-list replanning
//   kremlin --bench=ft                             run a suite benchmark
//   kremlin prog.c --trace-out=trace.json          Chrome trace of the run
//                                                  (streamed through the
//                                                  bounded telemetry ring)
//   kremlin stats prog.c                           telemetry registry table
//   kremlin lint prog.c                            static loop-dependence
//                                                  verdicts, no execution
//   kremlin report prog.c --format=speedscope      flamegraph/timeline
//                                                  exports of the profile
//
// plus the regression harness (also built as the `kremlin-bench` binary):
//
//   kremlin bench                                  parallel suite run + JSON
//   kremlin bench --check-baseline                 fail on metric regression
//   kremlin bench --update-baseline                refresh bench/baseline.json
//
// and the fleet subcommands merge, diff, serve, push and top
// (AggregateTool.cpp). Every entry point parses its flags from one table
// (Cli.h). Diagnostics go through the telemetry logger (KREMLIN_LOG=error|
// warn|info|debug); results and tables go to stdout untouched.
//
//===----------------------------------------------------------------------===//

#include "compress/TraceIO.h"
#include "driver/BenchHarness.h"
#include "driver/Cli.h"
#include "driver/KremlinDriver.h"
#include "driver/PaperFigures.h"
#include "ir/IRPrinter.h"
#include "parser/Lower.h"
#include "suite/PaperSuite.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

using namespace kremlin;
using namespace kremlin::cli;
namespace tel = kremlin::telemetry;

namespace {

/// Machine-readable lint report: per-loop verdicts + reasons, the module
/// summary, and the per-function mod/ref summaries the verdicts used.
/// Wall time is deliberately omitted so the output is byte-stable and can
/// be diffed against golden files in CI.
JsonValue lintReportJson(const DriverResult &Result,
                         const std::string &SourceName) {
  const Module &M = *Result.M;
  const StaticAnalysisResult &S = Result.Static;

  JsonValue Summary = JsonValue::makeObject();
  Summary.set("loops", static_cast<unsigned>(S.Loops.size()));
  Summary.set("doall", S.NumDoall);
  Summary.set("reduction", S.NumReduction);
  Summary.set("serial", S.NumSerial);
  Summary.set("unknown", S.NumUnknown);
  Summary.set("unknown_fraction", S.unknownFraction());
  Summary.set("call_sites", S.CallSites);
  Summary.set("calls_summarized", S.CallsSummarized);
  Summary.set("reductions", S.ReductionsRecognized);

  JsonValue Loops = JsonValue::makeArray();
  for (const StaticLoopResult &L : S.Loops) {
    JsonValue O = JsonValue::makeObject();
    O.set("function", L.Func != NoFunc ? M.Functions[L.Func].Name : "?");
    O.set("where", L.Region != NoRegion ? M.Regions[L.Region].sourceSpan()
                   : L.Func != NoFunc   ? M.Functions[L.Func].Name
                                        : "?");
    O.set("verdict", loopVerdictName(L.Verdict));
    O.set("reason", L.Reason);
    if (L.DepSrcLine != 0 || L.DepDstLine != 0) {
      O.set("dep_src_line", L.DepSrcLine);
      O.set("dep_dst_line", L.DepDstLine);
    }
    if (!L.Callees.empty()) {
      JsonValue Callees = JsonValue::makeArray();
      for (const std::string &Name : L.Callees)
        Callees.push(Name);
      O.set("callees", std::move(Callees));
      O.set("call_sites", L.CallSites);
      O.set("calls_summarized", L.CallsSummarized);
    }
    if (L.Reductions != 0) {
      O.set("reductions", L.Reductions);
      O.set("reduction_ops", L.ReductionOps);
    }
    Loops.push(std::move(O));
  }

  JsonValue Funcs = JsonValue::makeArray();
  for (size_t F = 0; F < S.ModRef.Summaries.size() && F < M.Functions.size();
       ++F) {
    const ModRefSummary &Sum = S.ModRef.Summaries[F];
    JsonValue O = JsonValue::makeObject();
    O.set("name", M.Functions[F].Name);
    O.set("opaque", Sum.Opaque);
    O.set("recursive", Sum.Recursive);
    JsonValue Reads = JsonValue::makeArray();
    for (GlobalId G : Sum.GlobalReads)
      Reads.push(G < M.Globals.size() ? M.Globals[G].Name : "?");
    O.set("global_reads", std::move(Reads));
    JsonValue Writes = JsonValue::makeArray();
    for (GlobalId G : Sum.GlobalWrites)
      Writes.push(G < M.Globals.size() ? M.Globals[G].Name : "?");
    O.set("global_writes", std::move(Writes));
    JsonValue PReads = JsonValue::makeArray();
    for (unsigned K = 0; K < Sum.ParamReads.size(); ++K)
      if (Sum.ParamReads[K])
        PReads.push(K);
    O.set("param_reads", std::move(PReads));
    JsonValue PWrites = JsonValue::makeArray();
    for (unsigned K = 0; K < Sum.ParamWrites.size(); ++K)
      if (Sum.ParamWrites[K])
        PWrites.push(K);
    O.set("param_writes", std::move(PWrites));
    Funcs.push(std::move(O));
  }

  JsonValue Doc = JsonValue::makeObject();
  Doc.set("source", SourceName);
  Doc.set("summary", std::move(Summary));
  Doc.set("loops", std::move(Loops));
  Doc.set("functions", std::move(Funcs));
  return Doc;
}

/// What kremlin, stats and lint share: the pipeline's flags and values.
struct Pipeline {
  SourceInput In;
  DriverOptions Opts;
  TelemetryOut Tel;
  TraceReadLimits ReadLimits;
  std::string SaveTracePath, LoadTracePath;
  bool DumpIR = false, DumpProfile = false, DumpStats = false;
  unsigned Rows = 25;

  Command command(std::string Usage, std::string Epilogue);
  std::optional<int> loadTrace() const;
  int run(const std::function<std::string(const DriverResult &)> &Render);
};

Command Pipeline::command(std::string Usage, std::string Epilogue) {
  Setter Exclude = [this](const std::string &Value) {
    for (const std::string &Tok : splitString(Value, ',')) {
      uint64_t Id = 0;
      if (Tok.empty())
        continue;
      if (!parseCount(Tok, std::numeric_limits<RegionId>::max(), Id))
        return Status::error(ErrorCode::InvalidArgument,
                             "invalid value '" + Value +
                                 "' for --exclude: expected region ids");
      Opts.Planner.Excluded.insert(static_cast<RegionId>(Id));
    }
    return Status::success();
  };
  return {
      std::move(Usage),
      join({In.flags(),
            {{"--personality", "<openmp|cilk|work|selfp>",
              "planner personality", &Opts.PersonalityName},
             {"--exclude", "<id,id,...>", "exclude region ids, replan",
              Exclude},
             {"--min-sp", "<f>", "self-parallelism cutoff",
              &Opts.Planner.MinSelfParallelism},
             {"--rows", "<n>", "plan rows to print", &Rows},
             {"--max-shadow-mb", "<n>",
              "shadow-memory byte budget (0 = unlimited; exceeded => "
              "structured error, not OOM)",
              MiB{&Opts.Runtime.MaxShadowBytes}},
             {"--max-region-depth", "<n>",
              "region-nesting depth cap (0 = unlimited)",
              &Opts.Runtime.MaxRegionDepth},
             {"--profile", "", "dump per-region profile", &DumpProfile},
             {"--save-trace", "<path>", "write the compressed trace",
              &SaveTracePath},
             {"--load-trace", "<path>",
              "decode a compressed trace and print its summary",
              &LoadTracePath},
             maxProfileMb(ReadLimits.MaxBytes),
             Tel.traceOut(),
             Tel.metricsOut(),
             {"--dump-ir", "", "print instrumented IR", &DumpIR},
             {"--stats", "", "runtime/compression stats", &DumpStats},
             {"--verify-ir", "",
              "re-verify the IR after each instrumentation pass (default: "
              "on in Debug)",
              &Opts.VerifyIR},
             {"--no-verify-ir", "", "skip that re-verification",
              unset(Opts.VerifyIR)},
             {"--no-static-analysis", "",
              "skip the static loop-dependence analyzer",
              unset(Opts.StaticAnalysis)}}}),
      std::move(Epilogue), In.readFile()};
}

/// `--load-trace=<path>`: decodes a compressed parallelism profile and
/// prints its summary (the aggregation entry point of §2.4). Returns the
/// exit code when there is nothing left to run.
std::optional<int> Pipeline::loadTrace() const {
  if (LoadTracePath.empty())
    return std::nullopt;
  Expected<DictionaryCompressor> Dict =
      readTraceFile(LoadTracePath, nullptr, ReadLimits);
  if (!Dict.ok()) {
    tel::logError("cli", Dict.status().toString());
    return 1;
  }
  std::printf("trace %s: %zu alphabet entries, %llu dynamic regions, "
              "%s compressed (%.0fx)\n",
              LoadTracePath.c_str(), Dict->alphabet().size(),
              static_cast<unsigned long long>(Dict->numDynamicRegions()),
              formatBytes(Dict->compressedBytes()).c_str(),
              Dict->compressionRatio());
  if (In.Name.empty())
    return 0;
  return std::nullopt;
}

/// Profiles the source (or only dumps its IR) and prints \p Render's view
/// of the result.
int Pipeline::run(
    const std::function<std::string(const DriverResult &)> &Render) {
  if (!Tel.start("cli"))
    return 1;

  if (DumpIR) {
    LowerResult LR = compileMiniC(In.Text, In.Name);
    for (const std::string &E : LR.Errors)
      tel::logError("frontend", E);
    if (!LR.succeeded())
      return 1;
    instrumentModule(*LR.M);
    std::fputs(printModule(*LR.M).c_str(), stdout);
    return 0;
  }

  KremlinDriver Driver(Opts);
  DriverResult Result = Driver.runOnSource(In.Text, In.Name);
  for (const std::string &E : Result.Errors)
    tel::logError("cli", E);
  if (!Result.succeeded())
    return 1;

  if (!SaveTracePath.empty()) {
    Status WriteSt = writeTraceFile(*Result.Dict, SaveTracePath);
    if (!WriteSt.ok()) {
      tel::logError("cli", WriteSt.toString());
      return 1;
    }
    std::printf("trace written to %s\n", SaveTracePath.c_str());
  }
  if (DumpProfile)
    std::fputs(Result.Profile->toText().c_str(), stdout);
  if (DumpStats) {
    std::printf("dynamic instructions : %llu\n",
                static_cast<unsigned long long>(Result.Exec.DynInstructions));
    std::printf("dynamic regions      : %llu\n",
                static_cast<unsigned long long>(
                    Result.Dict->numDynamicRegions()));
    std::printf("raw trace size       : %s\n",
                formatBytes(Result.Dict->rawTraceBytes()).c_str());
    std::printf("compressed size      : %s (%.0fx)\n",
                formatBytes(Result.Dict->compressedBytes()).c_str(),
                Result.Dict->compressionRatio());
  }
  std::fputs(Render(Result).c_str(), stdout);
  return Tel.finish("cli") ? 0 : 1;
}

/// `kremlin stats --diff a.json b.json`: compares two metrics documents
/// (bench results, baselines, or --metrics-out snapshots).
int statsDiff(const std::vector<std::string> &Paths) {
  if (Paths.size() != 2) {
    tel::logError("cli", "--diff needs exactly two metrics JSON files");
    return 1;
  }
  MetricMap Maps[2];
  for (int Side = 0; Side < 2; ++Side) {
    std::string Json, Error;
    if (!readFileToString(Paths[Side], Json)) {
      tel::logError("cli", Status::error(ErrorCode::IoError, "cannot read")
                               .withStage("stats-diff")
                               .withInput(Paths[Side])
                               .toString());
      return 1;
    }
    if (!parseMetricsJson(Json, Maps[Side], &Error)) {
      tel::logError("cli", Status::error(ErrorCode::DecodeError, Error)
                               .withStage("stats-diff")
                               .withInput(Paths[Side])
                               .toString());
      return 1;
    }
  }
  std::printf("a: %s\nb: %s\n", Paths[0].c_str(), Paths[1].c_str());
  std::fputs(renderMetricsDiff(Maps[0], Maps[1]).c_str(), stdout);
  return 0;
}

int statsMain(const Args &A) {
  Pipeline P;
  bool Diff = false;
  std::vector<std::string> DiffPaths;
  Command C = P.command(
      "usage: kremlin stats (<source.c> | --bench=<name> | --tracking) "
      "[options]\n"
      "       kremlin stats --diff <a.json> <b.json>",
      "Runs the same pipeline as `kremlin` and renders the telemetry\n"
      "registry as a table instead of the plan.\n");
  C.Flags.push_back({"--diff", "",
                     "compare the two metrics JSON files that follow "
                     "(bench results, baselines, --metrics-out snapshots)",
                     &Diff});
  C.Positional = [&Diff, &DiffPaths,
                  ReadFile = C.Positional](const std::string &Arg) {
    if (!Diff)
      return ReadFile(Arg);
    DiffPaths.push_back(Arg);
    return Status::success();
  };
  if (std::optional<int> Exit = parse(C, A, "cli"))
    return *Exit;
  if (Diff)
    return statsDiff(DiffPaths);
  if (std::optional<int> Exit = P.loadTrace())
    return *Exit;
  // Nothing to run: render the (empty) registry so scripts always get a
  // table on stdout.
  if (P.In.Name.empty()) {
    std::fputs(tel::Registry::global().renderTable().c_str(), stdout);
    return 0;
  }
  return P.run([](const DriverResult &) {
    return tel::Registry::global().renderTable();
  });
}

/// `kremlin lint`: frontend + static passes only; never executes the
/// program. The verdicts are advisory, so a clean run exits 0 even when
/// serial loops were found; only pipeline errors exit nonzero.
int lintMain(const Args &A) {
  Pipeline P;
  std::string JsonPath;
  Command C = P.command(
      "usage: kremlin lint (<source.c> | --bench=<name> | --tracking) "
      "[options]",
      "Runs the front end and static passes only (no execution) and\n"
      "prints per-loop dependence verdicts (doall, reduction, serial,\n"
      "unknown).\n");
  C.Flags.push_back({"--json", "<path>",
                     "also write a machine-readable report (per-loop "
                     "verdicts + reasons, callee mod/ref summaries); - "
                     "means stdout",
                     &JsonPath});
  if (std::optional<int> Exit = parse(C, A, "cli"))
    return *Exit;
  if (std::optional<int> Exit = P.loadTrace())
    return *Exit;
  if (P.In.Name.empty()) {
    printUsage(C);
    return 1;
  }
  if (!P.Tel.start("cli"))
    return 1;

  KremlinDriver Driver(P.Opts);
  DriverResult Result = Driver.lintSource(P.In.Text, P.In.Name);
  for (const std::string &E : Result.Errors)
    tel::logError("cli", E);
  if (!Result.succeeded())
    return 1;
  for (const std::string &W : Result.Warnings)
    tel::logWarn("cli", W);
  TablePrinter Table;
  Table.setHeader({"#", "File (lines)", "Verdict", "Detail"});
  size_t RowIdx = 0;
  for (const StaticLoopResult &L : Result.Static.Loops) {
    std::string Where =
        L.Region != NoRegion ? Result.M->Regions[L.Region].sourceSpan()
        : L.Func != NoFunc   ? Result.M->Functions[L.Func].Name
                             : "?";
    Table.addRow({std::to_string(++RowIdx), Where,
                  loopVerdictName(L.Verdict), L.Reason});
  }
  std::fputs(Table.render().c_str(), stdout);
  double AnalyzeMs = 0.0;
  for (const auto &[Stage, Ms] : Result.StageMs)
    if (Stage == "analyze")
      AnalyzeMs = Ms;
  std::printf("lint: %zu loop(s) analyzed -- %u doall, %u reduction, "
              "%u serial, %u unknown (%.0f%% unknown); %u/%u call "
              "site(s) summarized (%.1f ms)\n",
              Result.Static.Loops.size(), Result.Static.NumDoall,
              Result.Static.NumReduction, Result.Static.NumSerial,
              Result.Static.NumUnknown,
              100.0 * Result.Static.unknownFraction(),
              Result.Static.CallsSummarized, Result.Static.CallSites,
              AnalyzeMs);
  if (!JsonPath.empty()) {
    std::string Doc = lintReportJson(Result, P.In.Name).serialize() + "\n";
    if (JsonPath == "-") {
      std::fputs(Doc.c_str(), stdout);
    } else if (!writeStringToFile(JsonPath, Doc)) {
      tel::logf(tel::LogLevel::Error, "cli", "cannot write '%s'",
                JsonPath.c_str());
      return 1;
    }
  }
  return P.Tel.finish("cli") ? 0 : 1;
}

/// The first program \p Old has entries for that a full-suite run profiles
/// but \p Result did not run ("" when there is none). Updating \p Old from
/// \p Result would retire every one of that program's entries.
std::string firstUnrunProgram(const BenchSuiteResult &Result,
                              const MetricMap &Old) {
  std::set<std::string> Known, Ran;
  for (const FigureProgram &P : figurePrograms(paperBenchmarkNames(), true))
    Known.insert(P.Name);
  for (const BenchmarkOutcome &O : Result.Outcomes)
    Ran.insert(O.Name);
  for (const auto &M : Old) {
    std::string Program = M.first.substr(0, M.first.find('.'));
    if (Known.count(Program) && !Ran.count(Program))
      return Program;
  }
  return "";
}

/// The `kremlin-bench` harness entry point; \p A excludes argv[0] and the
/// `bench` subcommand word.
int benchMain(const Args &A) {
  BenchSuiteOptions Opts;
  std::string OutPath = "BENCH_results.json";
  std::string BaselinePath = "bench/baseline.json";
  TelemetryOut Tel;
  bool CheckBaseline = false, UpdateBaseline = false;
  Command C{
      "usage: kremlin-bench [options]   (or: kremlin bench [options])",
      {{"--benchmarks", "<a,b,...>", "subset of the paper suite",
        &Opts.Benchmarks},
       {"--personality", "<name>", "planner personality (default openmp)",
        &Opts.PersonalityName},
       {"--out", "<path>", "results JSON (default BENCH_results.json)",
        &OutPath},
       {"--baseline", "<path>", "baseline JSON (default bench/baseline.json)",
        &BaselinePath},
       {"--check-baseline", "",
        "compare against baseline; nonzero on regression", &CheckBaseline},
       {"--update-baseline", "", "rewrite the baseline from this run",
        &UpdateBaseline},
       Tel.traceOut(),
       Tel.metricsOut()},
      "Programs run on every CPU the process may use (taskset limits\n"
      "them). --trace-out also writes per-benchmark speedscope profiles\n"
      "to bench_traces/ next to the trace file.\n"};
  if (std::optional<int> Exit = parse(C, A, "bench"))
    return *Exit;

  if (!Tel.TracePath.empty()) {
    // Every run's stage spans stream to --trace-out, each run's under its
    // own bench.program span; speedscope profiles go to a bench_traces/
    // directory beside it.
    if (!Tel.start("bench"))
      return 1;
    size_t Slash = Tel.TracePath.find_last_of('/');
    Opts.TraceDir = (Slash == std::string::npos
                         ? std::string()
                         : Tel.TracePath.substr(0, Slash + 1)) +
                    "bench_traces";
  }

  BenchSuiteResult Result = runBenchSuite(Opts);
  for (const std::string &E : Result.Errors)
    tel::logError("bench", E);
  // Fault isolation: a failed benchmark never aborts the suite. Its row is
  // marked, its metrics are excluded from baseline gating, and the exit
  // code reports the failure after everything else completes.
  std::vector<std::string> Failed = Result.failedBenchmarks();

  // Per-benchmark summary table; the figure-only programs appear in their
  // figures below.
  TablePrinter Table;
  Table.setHeader({"Benchmark", "status", "dyn insns", "plan", "manual",
                   "overlap", "ratio", "sim", "wall"});
  std::vector<std::string> Names =
      Opts.Benchmarks.empty() ? paperBenchmarkNames() : Opts.Benchmarks;
  auto Get = [&Result](const std::string &Name, const char *Key) {
    auto It = Result.Metrics.find(Name + "." + std::string(Key));
    return It == Result.Metrics.end() ? 0.0 : It->second;
  };
  size_t FigurePrograms = 0;
  for (const BenchmarkOutcome &O : Result.Outcomes) {
    const std::string &Name = O.Name;
    if (std::find(Names.begin(), Names.end(), Name) == Names.end()) {
      ++FigurePrograms;
      continue;
    }
    if (O.failed()) {
      Table.addRow({Name, "failed", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    Table.addRow(
        {Name, "ok", formatString("%.0f", Get(Name, "dyn_instructions")),
         formatString("%.0f", Get(Name, "plan_size")),
         formatString("%.0f", Get(Name, "manual_plan_size")),
         formatString("%.0f", Get(Name, "plan_overlap")),
         formatFactor(Get(Name, "compression_ratio"), 0),
         formatFactor(Get(Name, "sim_speedup")),
         formatString("%.0f ms", Result.RunStats[Name + ".wall_ms"])});
  }
  std::fputs(Table.render().c_str(), stdout);
  std::printf("suite: %zu benchmarks + %zu figure programs (%zu failed) on "
              "%u threads in %.0f ms\n\n",
              Names.size(), FigurePrograms, Failed.size(), Result.ThreadsUsed,
              Result.RunStats["suite.wall_ms"]);
  std::fputs(Result.Figures.c_str(), stdout);

  if (!writeStringToFile(OutPath, suiteResultToJson(Result))) {
    tel::logf(tel::LogLevel::Error, "bench", "cannot write '%s'",
              OutPath.c_str());
    return 1;
  }
  std::printf("results written to %s\n", OutPath.c_str());

  if (!Tel.finish("bench"))
    return 1;

  if (UpdateBaseline) {
    if (!Failed.empty()) {
      tel::logf(tel::LogLevel::Error, "bench",
                "refusing to write a baseline from a run with %zu failed "
                "benchmark(s)",
                Failed.size());
      return 1;
    }
    std::string OldJson;
    if (readFileToString(BaselinePath, OldJson)) {
      // A subset run must not replace a fuller baseline: it would retire
      // the skipped programs' entries and rewrite suite.* to its own sums.
      MetricMap Old;
      if (parseMetricsJson(OldJson, Old)) {
        if (std::string Program = firstUnrunProgram(Result, Old);
            !Program.empty()) {
          tel::logf(tel::LogLevel::Error, "bench",
                    "refusing to update '%s': this run did not profile %s, "
                    "and the update would retire every one of its entries "
                    "(run the full suite, or pass a new --baseline path)",
                    BaselinePath.c_str(), Program.c_str());
          return 1;
        }
      }
      // Never rewrite silently: show what changed against the outgoing
      // baseline, as the --check-baseline gate would report it.
      BaselineComparison Cmp = compareToBaseline(Result.Metrics, OldJson);
      if (!Cmp.Errors.empty())
        std::fputs(Cmp.render().c_str(), stdout);
      else
        std::printf("baseline update: %u of %u metric(s) differ from %s\n",
                    Cmp.NumFailed, Cmp.NumChecked, BaselinePath.c_str());
      for (const MetricDelta &D : Cmp.Deltas)
        if (D.Missing)
          std::printf("baseline update: retired %s (no longer produced)\n",
                      D.Name.c_str());
        else if (D.failed())
          std::fputs(D.render().c_str(), stdout);
    }
    if (!writeStringToFile(BaselinePath, makeBaselineJson(Result.Metrics))) {
      tel::logf(tel::LogLevel::Error, "bench", "cannot write '%s'",
                BaselinePath.c_str());
      return 1;
    }
    std::printf("baseline written to %s\n", BaselinePath.c_str());
    return 0;
  }

  if (CheckBaseline) {
    std::string BaselineJson;
    if (!readFileToString(BaselinePath, BaselineJson)) {
      tel::logf(tel::LogLevel::Error, "bench",
                "cannot read baseline '%s' "
                "(run with --update-baseline to create it)",
                BaselinePath.c_str());
      return 1;
    }
    BaselineComparison Cmp =
        compareToBaseline(Result.Metrics, BaselineJson, Failed);
    std::fputs(Cmp.render().c_str(), stdout);
    if (!Cmp.passed()) {
      // One grep-able line naming every regressed metric; the rendered
      // report above carries baseline-vs-observed values per metric.
      std::string List;
      for (const std::string &Name : Cmp.failedMetricNames())
        List += (List.empty() ? "" : ", ") + Name;
      tel::logf(tel::LogLevel::Error, "bench",
                "baseline gate failed: %u metric(s) regressed: %s",
                Cmp.NumFailed, List.c_str());
      return 1;
    }
  }
  return Failed.empty() ? 0 : 1;
}


/// The entry points `kremlin <name>` dispatches to; anything else is the
/// plain profiling run below.
struct Subcommand {
  const char *Name;
  int (*Main)(const Args &);
  const char *Summary;
};

const Subcommand Subcommands[] = {
    {"stats", statsMain,
     "telemetry registry instead of the plan; --diff compares two files"},
    {"lint", lintMain, "static per-loop dependence verdicts, no execution"},
    {"bench", benchMain, "parallel paper-suite run gated by a JSON baseline"},
    {"report", reportMain, "speedscope/collapsed/timeline/tree exports"},
    {"merge", mergeMain, "union saved profiles into one"},
    {"diff", diffMain, "per-region deltas between two saved profiles"},
    {"serve", serveMain, "HTTP ingest and views over the merged profiles"},
    {"push", pushMain, "upload profiles to a serve endpoint, with retries"},
    {"top", topMain, "live view of a serve endpoint's /metrics"},
};

/// `kremlin (<source.c> | --bench=<name> | --tracking) [options]`: profile
/// the program and print its parallelism plan.
int profileMain(const Args &A) {
  std::string Names, List;
  for (const Subcommand &S : Subcommands) {
    Names += std::string(Names.empty() ? "" : "|") + S.Name;
    List += formatString("  %-8s %s\n", S.Name, S.Summary);
  }
  Pipeline P;
  Command C = P.command(
      "usage: kremlin [" + Names +
          "] (<source.c> | --bench=<name> | --tracking) [options]",
      "subcommands (each documents its flags under --help):\n" + List +
          "KREMLIN_LOG=error|warn|info|debug selects diagnostic verbosity.\n"
          "KREMLIN_FAULT=alloc:<p>|trace_corrupt|stage:<name>|bench_throw:<p>|\n"
          "ingest:<p>|store_write:<p>|shed:<p> (comma-combined,\n"
          "KREMLIN_FAULT_SEED=<n>) enables deterministic fault injection for\n"
          "testing failure paths.\n");
  if (std::optional<int> Exit = parse(C, A, "cli"))
    return *Exit;
  if (std::optional<int> Exit = P.loadTrace())
    return *Exit;
  // No input at all (a zero-byte *file* is real input: the pipeline runs
  // and reports its structured no-main error rather than usage text).
  if (P.In.Name.empty()) {
    printUsage(C);
    return 1;
  }
  return P.run([&P](const DriverResult &R) {
    return printPlan(*R.M, R.ThePlan, P.Rows);
  });
}

} // namespace

int main(int argc, char **argv) {
  Args A(argv + 1, argv + argc);
#ifdef KREMLIN_TOOL_FORCE_BENCH
  return benchMain(A);
#endif
  if (!A.empty())
    for (const Subcommand &S : Subcommands)
      if (A[0] == S.Name)
        return S.Main(Args(A.begin() + 1, A.end()));
  return profileMain(A);
}

//===- driver/ReportTool.cpp - `kremlin report` ---------------------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Profiles a MiniC program (or loads a saved compressed trace) and renders
// the HCPA region tree in one of the ProfileExport formats.
//
//===----------------------------------------------------------------------===//

#include "compress/TraceIO.h"
#include "driver/Cli.h"
#include "driver/KremlinDriver.h"
#include "report/ProfileExport.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>

using namespace kremlin;
using namespace kremlin::report;
namespace tel = kremlin::telemetry;

int cli::reportMain(const Args &A) {
  SourceInput In;
  std::string Format = "tree";
  std::string OutPath, LoadTracePath;
  ReportOptions Opts;
  TraceReadLimits Limits;
  Command C{
      "usage: kremlin report (<source.c> | --bench=<name> | --tracking) "
      "[options]",
      join({In.flags(),
            {{"--format", "<speedscope|collapsed|tree|timeline>",
              "output format (default tree)", &Format},
             {"--top", "<n>",
              "keep only the N highest-work rows (tree/timeline; 0 = all)",
              &Opts.Top},
             {"--min-coverage", "<pct>",
              "prune regions below this % of program work",
              &Opts.MinCoveragePct},
             {"--out", "<path>", "write to a file instead of stdout",
              &OutPath},
             {"--load-trace", "<path>",
              "analyze a saved compressed trace (the source is still needed "
              "for the region table; only static passes run)",
              &LoadTracePath},
             maxProfileMb(Limits.MaxBytes)}}),
      "speedscope output loads directly at https://www.speedscope.app;\n"
      "collapsed output feeds flamegraph.pl or speedscope's import.\n",
      In.readFile()};
  if (std::optional<int> Exit = parse(C, A, "report"))
    return *Exit;

  if (Format != "speedscope" && Format != "collapsed" && Format != "tree" &&
      Format != "timeline") {
    tel::logf(tel::LogLevel::Error, "report", "unknown format '%s'",
              Format.c_str());
    printUsage(C);
    return 1;
  }
  if (In.Name.empty()) {
    printUsage(C);
    return 1;
  }

  // Obtain module + dictionary: either a fresh profiling run, or static
  // passes only plus a saved trace (the §2.4 offline-analysis workflow).
  KremlinDriver Driver;
  DriverResult Result;
  std::unique_ptr<DictionaryCompressor> LoadedDict;
  if (!LoadTracePath.empty()) {
    Expected<DictionaryCompressor> Dict =
        readTraceFile(LoadTracePath, nullptr, Limits);
    if (!Dict.ok()) {
      tel::logError("report", Dict.status().toString());
      return 1;
    }
    LoadedDict = std::make_unique<DictionaryCompressor>(std::move(*Dict));
    Result = Driver.lintSource(In.Text, In.Name);
  } else {
    Result = Driver.runOnSource(In.Text, In.Name);
  }
  for (const std::string &E : Result.Errors)
    tel::logError("report", E);
  if (!Result.succeeded())
    return 1;

  const DictionaryCompressor &Dict =
      LoadedDict ? *LoadedDict : *Result.Dict;
  std::unique_ptr<ParallelismProfile> LoadedProfile;
  if (LoadedDict) {
    // A loaded trace must name only regions this source has; a trace from a
    // bigger program would index past the region table.
    size_t NumRegions = Result.M->Regions.size();
    for (const DynRegionSummary &S : Dict.alphabet()) {
      if (S.Static < NumRegions)
        continue;
      tel::logError(
          "report",
          Status::error(ErrorCode::InvalidArgument,
                        formatString("region id %u is out of range for '%s' "
                                     "(%zu regions)",
                                     S.Static, In.Name.c_str(), NumRegions))
              .withStage("report")
              .withInput(LoadTracePath)
              .toString());
      return 1;
    }
    LoadedProfile = std::make_unique<ParallelismProfile>(*Result.M, Dict);
  }
  const ParallelismProfile &Profile =
      LoadedProfile ? *LoadedProfile : *Result.Profile;

  tel::Span RenderSpan("report.render", "report");
  RenderSpan.arg("format", Format);
  RegionTree Tree = buildRegionTree(Profile, Opts);
  std::string Output;
  if (Format == "speedscope")
    Output = exportSpeedscope(Profile, Tree, In.Name);
  else if (Format == "collapsed")
    Output = exportCollapsed(Profile, Tree);
  else if (Format == "timeline")
    Output = exportTimeline(Profile, Dict, Opts);
  else
    Output = renderTree(Profile, Tree, Opts);
  RenderSpan.end();

  // JSON formats are self-validated before anything is written: report
  // output must always parse (the CI artifact contract).
  if (Format == "speedscope" || Format == "timeline") {
    JsonValue Parsed;
    std::string Error;
    if (!JsonValue::parse(Output, Parsed, &Error)) {
      tel::logf(tel::LogLevel::Error, "report",
                "internal error: %s output is not valid JSON: %s",
                Format.c_str(), Error.c_str());
      return 2;
    }
  }

  if (OutPath.empty()) {
    std::fputs(Output.c_str(), stdout);
  } else {
    if (!writeStringToFile(OutPath, Output)) {
      tel::logf(tel::LogLevel::Error, "report", "cannot write '%s'",
                OutPath.c_str());
      return 1;
    }
    std::printf("report written to %s\n", OutPath.c_str());
  }
  return 0;
}

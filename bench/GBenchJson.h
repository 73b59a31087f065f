//===- bench/GBenchJson.h - google-benchmark JSON capture -------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replacement for BENCHMARK_MAIN() in the micro-bench binaries: runs the
/// registered google-benchmark cases with the normal console output while
/// also capturing each case's per-iteration real time, and writes them as
/// a JSON document when --json=<path> is passed (the same
/// {"metrics": {...}} shape kremlin-bench writes, so one parser reads
/// both).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_BENCH_GBENCHJSON_H
#define KREMLIN_BENCH_GBENCHJSON_H

#include "support/Json.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace kremlin::bench {

/// Collects a bench's metrics and writes them as JSON on destruction when
/// the binary was invoked with --json=<path>. The constructor strips the
/// --json flag out of argv so google-benchmark's Initialize never sees it.
class BenchReporter {
public:
  BenchReporter(std::string Figure, int &Argc, char **Argv)
      : Figure(std::move(Figure)) {
    int Kept = 1;
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--json=", 0) == 0)
        OutPath = Arg.substr(7);
      else
        Argv[Kept++] = Argv[I];
    }
    Argc = Kept;
  }

  BenchReporter(const BenchReporter &) = delete;
  BenchReporter &operator=(const BenchReporter &) = delete;

  /// Records one metric (insertion order is preserved in the output).
  void metric(const std::string &Name, double Value) {
    Metrics.emplace_back(Name, Value);
  }

  ~BenchReporter() {
    if (OutPath.empty())
      return;
    JsonValue Doc = JsonValue::makeObject();
    Doc.set("schema", JsonValue(1));
    Doc.set("kind", JsonValue("kremlin-bench-figure"));
    Doc.set("figure", JsonValue(Figure));
    JsonValue Map = JsonValue::makeObject();
    for (const auto &M : Metrics)
      Map.set(M.first, JsonValue(M.second));
    Doc.set("metrics", std::move(Map));
    if (!writeStringToFile(OutPath, Doc.serialize() + "\n"))
      std::fprintf(stderr, "bench: cannot write '%s'\n", OutPath.c_str());
    else
      std::printf("\nmetrics written to %s\n", OutPath.c_str());
  }

private:
  std::string Figure;
  std::string OutPath;
  std::vector<std::pair<std::string, double>> Metrics;
};

/// ConsoleReporter that tees every successful run's adjusted real time
/// (ns/iteration) into a BenchReporter as "<figure>.<case>.real_ns" — the
/// figure prefix keeps names unique when several micro benches land in
/// one baseline document.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
public:
  JsonCaptureReporter(std::string Figure, BenchReporter &Reporter)
      : Figure(std::move(Figure)), Reporter(Reporter) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (!R.error_occurred)
        Reporter.metric(Figure + "." + R.benchmark_name() + ".real_ns",
                        R.GetAdjustedRealTime());
    ConsoleReporter::ReportRuns(Runs);
  }

private:
  std::string Figure;
  BenchReporter &Reporter;
};

/// Drop-in main body: strip --json, init google-benchmark, run everything
/// through the capturing reporter.
inline int gbenchJsonMain(const std::string &Figure, int argc, char **argv) {
  BenchReporter Reporter(Figure, argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  JsonCaptureReporter Console(Figure, Reporter);
  benchmark::RunSpecifiedBenchmarks(&Console);
  return 0;
}

} // namespace kremlin::bench

#endif // KREMLIN_BENCH_GBENCHJSON_H

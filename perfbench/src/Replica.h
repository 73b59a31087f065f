//===- perfbench/src/Replica.h - Traced copy of the driver pipeline -*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replica of KremlinDriver: the same public layer calls
/// in the driver's order (parseMiniC, lowerProgram, verifyModule,
/// instrumentModule, analyzeModuleDependence, Interpreter::run,
/// ParallelismProfile, Personality::plan), each wrapped in a span. The
/// canonical forms below let the benchmark check that the replica's profile
/// and plan stay bit-identical to what the driver produced.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PERFBENCH_REPLICA_H
#define KREMLIN_PERFBENCH_REPLICA_H

#include "Common.h"

#include "driver/KremlinDriver.h"

#include <initializer_list>
#include <map>
#include <memory>
#include <string>

namespace kbench {

/// Layer products and the counts read after each call.
struct ReplicaResult {
  std::string Error; ///< Empty while healthy.
  std::unique_ptr<kremlin::Module> M;
  uint64_t SourceLines = 0;
  uint64_t InstsLowered = 0;      ///< IR instructions after lowering.
  uint64_t InstsInstrumented = 0; ///< IR instructions after instrumentation.
  kremlin::StaticAnalysisResult Static;
  std::unique_ptr<kremlin::DictionaryCompressor> Dict;
  kremlin::ExecResult Exec;
  kremlin::RuntimeStats Stats;
  uint64_t ShadowReads = 0;
  uint64_t ShadowWrites = 0;
  /// Shadow bytes still allocated when execution ended (not a peak).
  uint64_t ShadowBytesEnd = 0;
  std::unique_ptr<kremlin::ParallelismProfile> Profile;
  kremlin::Plan ThePlan;

  bool ok() const { return Error.empty(); }
};

/// parse -> lower -> verify -> instrument -> analyze, as lintSource runs
/// them (analysis forced on). Spans go to \p T under \p Parent.
void replicaStatic(const kremlin::DriverOptions &Opts,
                   const std::string &Source, const std::string &Name,
                   Tracer *T, int64_t Parent, ReplicaResult &R);

/// The full runOnSource sequence: replicaStatic (analysis per
/// Opts.StaticAnalysis), then execute -> profile -> plan.
void replicaPipeline(const kremlin::DriverOptions &Opts,
                     const std::string &Source, const std::string &Name,
                     Tracer *T, int64_t Parent, ReplicaResult &R);

/// IR instructions in \p M.
uint64_t countInsts(const kremlin::Module &M);

/// The static layers' counts, summed over one pass over the inputs.
struct StaticCounts {
  double Lines = 0, InstsLowered = 0, InstsInstrumented = 0, Loops = 0,
         Unknown = 0;
  void add(const ReplicaResult &R);
};

/// Per-pass self-time totals (ms) of a traced run, keyed by span name.
using LayerTimes = std::map<std::string, Samples>;

/// Adds one pass's self times (spans [Begin, T.size())) to \p Times and
/// returns the sum over the spans named in \p LayerSpans.
double addPass(const Tracer &T, size_t Begin,
               std::initializer_list<const char *> LayerSpans,
               LayerTimes &Times);

/// Median per-pass self time of span \p Name; 0 if it never ran.
double layerMs(const LayerTimes &Times, const char *Name);

/// Fills the parser.*, ir.*, instrument.* and analysis.* metrics.
void reportStaticLayers(const LayerTimes &Times, const StaticCounts &C,
                        Report &R);

/// Fills bench.trace_overhead_pct and bench.span_gap_pct and states them:
/// per-input latency untraced vs traced, and per pass the untraced time vs
/// the sum of the layer spans.
void reportOverhead(const Samples &Untraced, const Samples &Traced,
                    const Samples &UntracedPass, const Samples &SpanSumPass,
                    size_t Spans, size_t Inputs, Report &R);

/// Exact text forms (doubles as %a) for bit-identity checks.
std::string profileCanon(const kremlin::ParallelismProfile &P);
std::string planCanon(const kremlin::Plan &P);
std::string verdictCanon(const kremlin::StaticAnalysisResult &S);

} // namespace kbench

#endif // KREMLIN_PERFBENCH_REPLICA_H

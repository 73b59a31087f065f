//===- analysis/StaticDependence.h - Loop dependence verdicts ---*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static loop-dependence analysis: classifies each natural loop (and the
/// Loop region it lowers from) by running a subscript-test cascade
/// (ZIV -> strong SIV -> GCD -> Banerjee) on induction-indexed array
/// accesses, loop-carried scalar dependence detection (DataFlow.h),
/// interprocedural mod/ref summaries for loops containing calls
/// (CallGraph.h / ModRef.h), and reduction idiom recognition.
///
/// Kremlin's self-parallelism is measured on one input; these verdicts are
/// input-independent, so the planner can demote a loop HCPA happened to
/// measure as parallel, and the driver can flag disagreements as
/// input-sensitivity warnings:
///
///  - ProvablyDoall: no loop-carried flow dependence exists on any input
///    (anti/output and induction/reduction dependences are "easy to break"
///    per paper §4.1 and do not count).
///  - ProvablyReduction: parallelizable like a doall, but only with a
///    reduction clause -- the sole carried dependences are reduction
///    recurrences (acc = acc op e with op in {+,*,min,max}, or a
///    same-cell memory reduction).
///  - ProvablySerial: a loop-carried dependence provably occurs on every
///    iteration pair *and* its dependence cycle dominates the iteration's
///    critical path, so no input can make the loop profitable.
///  - Unknown: everything the tests cannot decide (opaque callees,
///    indirect subscripts, nested loops, symbolic strides).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_STATICDEPENDENCE_H
#define KREMLIN_ANALYSIS_STATICDEPENDENCE_H

#include "analysis/ModRef.h"
#include "ir/Module.h"

#include <map>
#include <string>
#include <vector>

namespace kremlin {

/// Input-independent classification of one loop.
enum class LoopVerdict : unsigned char {
  Unknown = 0,
  ProvablyDoall,
  ProvablySerial,
  ProvablyReduction,
};

/// Short lowercase name for tables and diagnostics.
inline const char *loopVerdictName(LoopVerdict V) {
  switch (V) {
  case LoopVerdict::Unknown:
    return "unknown";
  case LoopVerdict::ProvablyDoall:
    return "doall";
  case LoopVerdict::ProvablySerial:
    return "serial";
  case LoopVerdict::ProvablyReduction:
    return "reduction";
  }
  return "unknown";
}

/// Verdict for one natural loop, tied back to its static Loop region.
struct StaticLoopResult {
  /// The Loop region this natural loop lowers from (NoRegion when the CFG
  /// loop has no region marker, e.g. hand-built IR).
  RegionId Region = NoRegion;
  FuncId Func = NoFunc;
  BlockId Header = NoBlock;
  LoopVerdict Verdict = LoopVerdict::Unknown;
  /// One-line justification; for ProvablySerial, cites the blocking
  /// dependence with source locations.
  std::string Reason;
  /// ProvablySerial: source line of the dependence source (the write) and
  /// sink (the read in a later iteration); 0 when unavailable.
  unsigned DepSrcLine = 0;
  unsigned DepDstLine = 0;
  /// Distinct callee names reached from inside the loop, sorted.
  std::vector<std::string> Callees;
  /// Call sites inside the loop, and how many of those had a usable
  /// (non-opaque) mod/ref summary.
  unsigned CallSites = 0;
  unsigned CallsSummarized = 0;
  /// Reduction recurrences recognized in this loop (scalar accumulators,
  /// min/max idioms, and same-cell memory reductions), regardless of the
  /// final verdict.
  unsigned Reductions = 0;
  /// ProvablyReduction: the reduction operator set, e.g. "+" or "+,max".
  std::string ReductionOps;
  /// ProvablyReduction: at least one recognized recurrence is a min/max
  /// idiom. HCPA's runtime rule only breaks +/* reductions, so min/max
  /// loops legitimately *measure* serial while still being parallelizable
  /// with a reduction -- consumers cross-checking verdicts against measured
  /// self-parallelism must not flag those.
  bool MinMaxReduction = false;
};

/// Whole-module analysis output.
struct StaticAnalysisResult {
  std::vector<StaticLoopResult> Loops;
  unsigned NumDoall = 0;
  unsigned NumSerial = 0;
  unsigned NumUnknown = 0;
  unsigned NumReduction = 0;
  /// Call sites inside analyzed loops: total and with usable summaries.
  unsigned CallSites = 0;
  unsigned CallsSummarized = 0;
  /// Reduction recurrences recognized across all loops (a loop with two
  /// accumulators counts twice).
  unsigned ReductionsRecognized = 0;
  /// Per-function mod/ref summaries (indexed by FuncId) used to reach the
  /// verdicts; exported so lint can report callee side effects.
  ModRefResult ModRef;

  /// The result for region \p R, or nullptr if \p R was not analyzed.
  const StaticLoopResult *forRegion(RegionId R) const {
    for (const StaticLoopResult &L : Loops)
      if (L.Region == R && R != NoRegion)
        return &L;
    return nullptr;
  }

  /// Region -> verdict map in the shape PlannerOptions consumes.
  std::map<RegionId, LoopVerdict> verdictMap() const {
    std::map<RegionId, LoopVerdict> Map;
    for (const StaticLoopResult &L : Loops)
      if (L.Region != NoRegion)
        Map.emplace(L.Region, L.Verdict);
    return Map;
  }

  /// Fraction of analyzed loops left Unknown, in [0,1]; 0 when no loops.
  double unknownFraction() const {
    return Loops.empty() ? 0.0
                         : static_cast<double>(NumUnknown) /
                               static_cast<double>(Loops.size());
  }
};

/// Analyzes every natural loop of \p F, whose analysis is \p FA. Requires
/// induction/reduction marks (run after instrumentModule); unmarked IR
/// degrades to Unknown verdicts, never to unsound ones. \p MR supplies
/// callee mod/ref summaries; when null, loops containing calls stay
/// Unknown.
std::vector<StaticLoopResult>
analyzeFunctionDependence(const Module &M, const Function &F,
                          const FunctionAnalysis &FA,
                          const ModRefResult *MR = nullptr);

/// Analyzes every function of \p M (building each function's analysis,
/// then the call graph and mod/ref summaries), updates the telemetry
/// registry (static.loops_analyzed,
/// static.verdict_*, static.calls_summarized, static.reductions) and
/// records wall time.
StaticAnalysisResult analyzeModuleDependence(const Module &M);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_STATICDEPENDENCE_H

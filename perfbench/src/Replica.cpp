//===- perfbench/src/Replica.cpp ------------------------------------------===//

#include "Replica.h"

#include "ir/Verifier.h"
#include "parser/Lower.h"
#include "parser/Parser.h"

#include <algorithm>

using namespace kremlin;

namespace kbench {

uint64_t countInsts(const Module &M) {
  uint64_t N = 0;
  for (const Function &F : M.Functions)
    for (const BasicBlock &BB : F.Blocks)
      N += BB.Insts.size();
  return N;
}

namespace {

bool staticStages(const DriverOptions &Opts, bool ForceAnalysis,
                  const std::string &Source, const std::string &Name,
                  Tracer *T, int64_t Parent, ReplicaResult &R) {
  R.SourceLines =
      static_cast<uint64_t>(std::count(Source.begin(), Source.end(), '\n'));
  ParseResult PR = traced(T, "parser.parse", "parser", Name, Parent,
                          [&] { return parseMiniC(Source, Name); });
  if (!PR.succeeded()) {
    R.Error = "parse: " + PR.Errors.front();
    return false;
  }
  LowerResult LR = traced(T, "parser.lower", "parser", Name, Parent,
                          [&] { return lowerProgram(PR.Program); });
  R.M = std::move(LR.M);
  if (!LR.succeeded()) {
    R.Error = "lower: " + LR.Errors.front();
    return false;
  }
  R.InstsLowered = countInsts(*R.M);

  std::vector<std::string> Problems = traced(
      T, "ir.verify", "ir", Name, Parent, [&] { return verifyModule(*R.M); });
  if (!Problems.empty()) {
    R.Error = "verify: " + Problems.front();
    return false;
  }

  InstrumentOptions IO;
  IO.VerifyAfterEachPass = Opts.VerifyIR;
  InstrumentResult IR =
      traced(T, "instrument.instrument", "instrument", Name, Parent,
             [&] { return instrumentModule(*R.M, IO); });
  if (!IR.Err.ok()) {
    R.Error = "instrument: " + IR.Err.toString();
    return false;
  }
  R.InstsInstrumented = countInsts(*R.M);

  if (Opts.StaticAnalysis || ForceAnalysis)
    R.Static = traced(T, "analysis.analyze", "analysis", Name, Parent,
                      [&] { return analyzeModuleDependence(*R.M); });
  return true;
}

} // namespace

void replicaStatic(const DriverOptions &Opts, const std::string &Source,
                   const std::string &Name, Tracer *T, int64_t Parent,
                   ReplicaResult &R) {
  staticStages(Opts, /*ForceAnalysis=*/true, Source, Name, T, Parent, R);
}

void replicaPipeline(const DriverOptions &Opts, const std::string &Source,
                     const std::string &Name, Tracer *T, int64_t Parent,
                     ReplicaResult &R) {
  if (!staticStages(Opts, /*ForceAnalysis=*/false, Source, Name, T, Parent,
                    R))
    return;

  R.Dict = std::make_unique<DictionaryCompressor>();
  KremlinRuntime RT(Opts.Runtime, *R.Dict);
  R.Exec = traced(T, "rt.profiled", "rt", Name, Parent, [&] {
    Interpreter Interp(*R.M, Opts.Interp);
    return Interp.run(&RT);
  });
  R.Stats = RT.stats();
  R.ShadowReads = RT.shadowMemory().timestampReads();
  R.ShadowWrites = RT.shadowMemory().timestampWrites();
  R.ShadowBytesEnd = RT.shadowMemory().allocatedBytes();
  if (!R.Exec.Ok) {
    R.Error = "execute: " + R.Exec.Error;
    return;
  }

  R.Profile = traced(T, "profile.build", "profile", Name, Parent, [&] {
    return std::make_unique<ParallelismProfile>(*R.M, *R.Dict);
  });

  std::unique_ptr<Personality> P = makePersonality(Opts.PersonalityName);
  if (!P) {
    R.Error = "plan: unknown personality " + Opts.PersonalityName;
    return;
  }
  R.ThePlan = traced(T, "planner.plan", "planner", Name, Parent, [&] {
    PlannerOptions PO = Opts.Planner;
    PO.StaticVerdicts = R.Static.verdictMap();
    return P->plan(*R.Profile, PO);
  });
}

void StaticCounts::add(const ReplicaResult &R) {
  Lines += static_cast<double>(R.SourceLines);
  InstsLowered += static_cast<double>(R.InstsLowered);
  InstsInstrumented += static_cast<double>(R.InstsInstrumented);
  Loops += static_cast<double>(R.Static.Loops.size());
  Unknown += R.Static.NumUnknown;
}

double addPass(const Tracer &T, size_t Begin,
               std::initializer_list<const char *> LayerSpans,
               LayerTimes &Times) {
  std::map<std::string, double> Self = T.selfMsByName(Begin, T.size());
  for (const auto &[Name, Ms] : Self)
    Times[Name].add(Ms);
  double Sum = 0;
  for (const char *Name : LayerSpans)
    Sum += Self[Name];
  return Sum;
}

double layerMs(const LayerTimes &Times, const char *Name) {
  auto It = Times.find(Name);
  return It == Times.end() ? 0.0 : It->second.median();
}

void reportStaticLayers(const LayerTimes &Times, const StaticCounts &C,
                        Report &R) {
  std::map<std::string, double> &L = R.PerLayer;
  double ParseMs = layerMs(Times, "parser.parse");
  double LowerMs = layerMs(Times, "parser.lower");
  double AnalyzeMs = layerMs(Times, "analysis.analyze");
  L["parser.parse_ms"] = ParseMs;
  L["parser.lower_ms"] = LowerMs;
  L["parser.lines_per_s"] = C.Lines / ((ParseMs + LowerMs) / 1000.0);
  L["ir.verify_ms"] = layerMs(Times, "ir.verify");
  L["ir.insts"] = C.InstsLowered;
  L["instrument.instrument_ms"] = layerMs(Times, "instrument.instrument");
  L["instrument.insts_after"] = C.InstsInstrumented;
  L["analysis.analyze_ms"] = AnalyzeMs;
  L["analysis.loops"] = C.Loops;
  L["analysis.loops_per_s"] = C.Loops / (AnalyzeMs / 1000.0);
  L["analysis.unknown_ratio"] = C.Loops ? C.Unknown / C.Loops : 0;
}

void reportOverhead(const Samples &Untraced, const Samples &Traced,
                    const Samples &UntracedPass, const Samples &SpanSumPass,
                    size_t Spans, size_t Inputs, Report &R) {
  double UntracedP50 = Untraced.median(), TracedP50 = Traced.median();
  double PassMs = UntracedPass.median(), SpanMs = SpanSumPass.median();
  double &Overhead = R.PerLayer["bench.trace_overhead_pct"];
  double &Gap = R.PerLayer["bench.span_gap_pct"];
  Overhead = 100.0 * (TracedP50 / UntracedP50 - 1.0);
  Gap = 100.0 * (PassMs - SpanMs) / PassMs;
  R.line("traced run: %zu spans over %zu traced passes; counts are totals "
         "per pass over the %zu inputs; times are per-pass self-time "
         "medians",
         Spans, SpanSumPass.size(), Inputs);
  R.line("tracing overhead: traced program_ms.p50 %.4f vs untraced %.4f "
         "(%+.2f%%)",
         TracedP50, UntracedP50, Overhead);
  R.line("span sum per pass %.2f ms vs untraced pass %.2f ms: %.2f ms "
         "(%.2f%%) is driver work outside the layer calls",
         SpanMs, PassMs, PassMs - SpanMs, Gap);
}

std::string profileCanon(const ParallelismProfile &P) {
  std::string Out;
  for (const RegionProfileEntry &E : P.entries())
    Out += std::to_string(E.Id) + ' ' + std::to_string(E.Executed) + ' ' +
           std::to_string(E.Instances) + ' ' + std::to_string(E.TotalWork) +
           ' ' + std::to_string(E.TotalCp) + ' ' +
           std::to_string(E.TotalChildren) + ' ' +
           hexFloat(E.SelfParallelism) + ' ' + hexFloat(E.TotalParallelism) +
           ' ' + hexFloat(E.CoveragePct) + ' ' +
           std::to_string(static_cast<int>(E.Class)) + '\n';
  for (const RegionEdge &E : P.edges())
    Out += "edge " + std::to_string(E.Parent) + ' ' + std::to_string(E.Child) +
           ' ' + std::to_string(E.Work) + ' ' + std::to_string(E.Count) + '\n';
  Out += "work " + std::to_string(P.programWork()) + '\n';
  return Out;
}

std::string planCanon(const Plan &P) {
  std::string Out = P.Personality + ' ' + hexFloat(P.EstProgramSpeedup) + '\n';
  for (const PlanItem &I : P.Items)
    Out += std::to_string(I.Region) + ' ' + hexFloat(I.SelfP) + ' ' +
           hexFloat(I.CoveragePct) + ' ' +
           std::to_string(static_cast<int>(I.Class)) + ' ' +
           std::to_string(static_cast<int>(I.Static)) + ' ' +
           hexFloat(I.GainFrac) + ' ' + hexFloat(I.EstSpeedup) + '\n';
  return Out;
}

std::string verdictCanon(const StaticAnalysisResult &S) {
  std::string Out;
  for (const StaticLoopResult &L : S.Loops)
    Out += std::to_string(L.Region) + ' ' + std::to_string(L.Func) + ' ' +
           std::to_string(L.Header) + ' ' +
           std::to_string(static_cast<int>(L.Verdict)) + ' ' + L.Reason +
           '\n';
  return Out;
}

} // namespace kbench

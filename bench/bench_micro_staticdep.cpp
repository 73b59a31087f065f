//===- bench/bench_micro_staticdep.cpp - static analysis microbenches -----===//
//
// Microbenchmarks for the parts of the static loop-dependence layer that
// perfbench's static-lint workload times only as one analyze stage
// (analysis.analyze_ms): the reaching-definitions fixpoint and the
// per-loop scalar dependence scan on a synthetic many-loop program, and
// call-graph construction, mod/ref summaries and their share of analyze
// on a call-heavy one.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/DataFlow.h"
#include "analysis/ModRef.h"
#include "analysis/StaticDependence.h"
#include "instrument/Instrumenter.h"
#include "parser/Lower.h"
#include "support/StringUtils.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

/// A program with many loops of every verdict class: doall writes to
/// distinct cells, serial array recurrences, reductions, and an indirect
/// subscript the SIV tests must give up on.
std::string manyLoopSource() {
  std::string Src = "int a[256];\nint b[256];\nint idx[64];\n";
  Src += "int main() {\n  int s = 0;\n";
  for (unsigned K = 0; K < 8; ++K) {
    Src += formatString("  for (int d%u = 0; d%u < 64; d%u = d%u + 1) {"
                        " a[d%u] = d%u * 3 + %u; }\n",
                        K, K, K, K, K, K, K);
    Src += formatString("  for (int r%u = 0; r%u < 63; r%u = r%u + 1) {"
                        " b[r%u + 1] = b[r%u] + 1; }\n",
                        K, K, K, K, K, K);
    Src += formatString("  for (int s%u = 0; s%u < 64; s%u = s%u + 1) {"
                        " s = s + a[s%u]; }\n",
                        K, K, K, K, K);
    Src += formatString("  for (int u%u = 0; u%u < 64; u%u = u%u + 1) {"
                        " b[idx[u%u] %% 256] = u%u; }\n",
                        K, K, K, K, K, K);
  }
  Src += "  return s % 1009;\n}\n";
  return Src;
}

/// Compiles + instruments the synthetic module once for all measurements.
const Module &staticDepModule() {
  static std::unique_ptr<Module> M = [] {
    LowerResult LR = compileMiniC(manyLoopSource(), "staticdep.c");
    if (!LR.succeeded())
      std::abort();
    instrumentModule(*LR.M);
    return std::move(LR.M);
  }();
  return *M;
}

const Function &mainFunction() {
  const Module &M = staticDepModule();
  FuncId Main = M.mainFunction();
  if (Main == NoFunc)
    std::abort();
  return M.Functions[Main];
}

/// The gen/kill bitvector fixpoint over the 32-loop main function.
void BM_ReachingDefs(benchmark::State &State) {
  const Function &F = mainFunction();
  for (auto _ : State) {
    ReachingDefs RD(F);
    benchmark::DoNotOptimize(RD.defs().size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ReachingDefs);

/// One back-edge scalar dependence scan per natural loop, reusing a
/// single reaching-defs result the way the analyzer does.
void BM_LoopCarriedScalarDeps(benchmark::State &State) {
  const Function &F = mainFunction();
  ReachingDefs RD(F);
  DomTree DT = computeDominators(F);
  LoopInfo LI = computeLoops(F);
  size_t Deps = 0;
  for (auto _ : State)
    for (const Loop &L : LI.Loops)
      Deps += findLoopCarriedScalarDeps(F, L, RD, DT).size();
  benchmark::DoNotOptimize(Deps);
  State.SetItemsProcessed(State.iterations() * LI.Loops.size());
}
BENCHMARK(BM_LoopCarriedScalarDeps);

/// A call-heavy module: a pure recursive helper, array-parameter writers,
/// global accumulators, and loops whose verdicts need callee summaries
/// plus GCD/Banerjee cross-stride subscript pairs.
std::string interprocSource() {
  std::string Src = "int a[256];\nint b[256];\nint acc[8];\n";
  Src += "int fib(int n) {"
         " if (n < 2) { return n; }"
         " return fib(n - 1) + fib(n - 2); }\n";
  Src += "void put(int p[], int i, int v) { p[i] = v; }\n";
  Src += "int tally(int i) { acc[0] = acc[0] + i; return acc[0]; }\n";
  Src += "int main() {\n  int s = 0;\n";
  for (unsigned K = 0; K < 8; ++K) {
    Src += formatString("  for (int c%u = 0; c%u < 32; c%u = c%u + 1) {"
                        " a[c%u] = fib(c%u %% 10); }\n",
                        K, K, K, K, K, K);
    Src += formatString("  for (int p%u = 0; p%u < 32; p%u = p%u + 1) {"
                        " put(b, p%u, p%u * 2); }\n",
                        K, K, K, K, K, K);
    Src += formatString("  for (int t%u = 0; t%u < 32; t%u = t%u + 1) {"
                        " s = s + tally(t%u) %% 13; }\n",
                        K, K, K, K, K);
    Src += formatString("  for (int g%u = 0; g%u < 32; g%u = g%u + 1) {"
                        " a[4 * g%u + 1] = a[2 * g%u] + 1; }\n",
                        K, K, K, K, K, K);
    Src += formatString("  for (int w%u = 0; w%u < 10; w%u = w%u + 1) {"
                        " b[w%u + 50] = b[2 * w%u] + 1; }\n",
                        K, K, K, K, K, K);
  }
  Src += "  return s % 1009;\n}\n";
  return Src;
}

const Module &interprocModule() {
  static std::unique_ptr<Module> M = [] {
    LowerResult LR = compileMiniC(interprocSource(), "interproc.c");
    if (!LR.succeeded())
      std::abort();
    instrumentModule(*LR.M);
    return std::move(LR.M);
  }();
  return *M;
}

/// Call-graph construction (sites, callee dedup, Tarjan SCCs).
void BM_CallGraphBuild(benchmark::State &State) {
  const Module &M = interprocModule();
  for (auto _ : State) {
    CallGraph CG(M);
    benchmark::DoNotOptimize(CG.numFunctions());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CallGraphBuild);

/// Bottom-up mod/ref summaries, including the recursive-SCC fixpoint.
void BM_ModRefSummaries(benchmark::State &State) {
  const Module &M = interprocModule();
  CallGraph CG(M);
  for (auto _ : State) {
    ModRefResult MR = computeModRef(M, CG);
    benchmark::DoNotOptimize(MR.Summaries.size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ModRefSummaries);

/// The analyze stage over the call-heavy module: callee-effect merging
/// plus the GCD and trip-counted Banerjee subscript tests.
void BM_AnalyzeInterprocModule(benchmark::State &State) {
  const Module &M = interprocModule();
  for (auto _ : State) {
    StaticAnalysisResult R = analyzeModuleDependence(M);
    if (R.CallsSummarized == 0)
      State.SkipWithError("no call summaries used");
    benchmark::DoNotOptimize(R.NumDoall + R.NumReduction + R.NumUnknown);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AnalyzeInterprocModule);

} // namespace

BENCHMARK_MAIN();

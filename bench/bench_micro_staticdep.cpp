//===- bench/bench_micro_staticdep.cpp - static analysis microbenches -----===//
//
// Microbenchmarks for the parts of the static loop-dependence layer that
// perfbench's static-lint workload times only as one analyze stage
// (analysis.analyze_ms): the per-loop scalar dependence scan on a
// synthetic many-loop program, and call-graph construction, mod/ref
// summaries and their share of analyze on a call-heavy one. The *OneKernel
// cases time instrument and analyze on one generated kernel of 50-400 loop
// sites: their cost per doubling of the argument shows whether the front
// end stays linear in function size. BM_LexSource, BM_ParseMiniC and
// BM_LowerProgram time the parser layer on the five lint-size programs in
// the front end's own units: bytes/s, tokens/s and IR instructions/s.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/DataFlow.h"
#include "analysis/ModRef.h"
#include "analysis/StaticDependence.h"
#include "instrument/Instrumenter.h"
#include "parser/Lexer.h"
#include "parser/Lower.h"
#include "parser/Parser.h"
#include "suite/SourceGenerator.h"
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

/// One back-edge scalar dependence scan per natural loop of the 32-loop
/// main function, each over its own loop view on one shared arena, the
/// way the analyzer runs it.
void BM_LoopCarriedScalarDeps(benchmark::State &State) {
  const Function &F = mainFunction();
  FunctionAnalysis FA = buildFunctionAnalysis(F);
  LoopScratch Scratch(F);
  size_t Deps = 0;
  for (auto _ : State)
    for (const Loop &L : FA.LI.Loops)
      Deps += findLoopCarriedScalarDeps(LoopView(F, FA, L, Scratch)).size();
  benchmark::DoNotOptimize(Deps);
  State.SetItemsProcessed(State.iterations() * FA.LI.Loops.size());
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
  std::vector<FunctionAnalysis> FA;
  for (const Function &F : M.Functions)
    FA.push_back(buildFunctionAnalysis(F));
  for (auto _ : State) {
    ModRefResult MR = computeModRef(M, CG, FA);
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

/// One kernel function of \p Sites loop sites cycling every SiteKind,
/// lowered.
std::unique_ptr<Module> loweredKernel(unsigned Sites) {
  LowerResult LR = compileMiniC(
      generateBenchmark(cyclingSiteSpec(Sites, Sites)).Source, "kernel.c");
  if (!LR.succeeded())
    std::abort();
  return std::move(LR.M);
}

/// The instrument stage on one kernel of range(0) sites; each iteration
/// instruments a fresh copy of the lowered module, copied untimed.
void BM_InstrumentOneKernel(benchmark::State &State) {
  std::unique_ptr<Module> Lowered =
      loweredKernel(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    State.PauseTiming();
    Module M = *Lowered;
    State.ResumeTiming();
    InstrumentResult R = instrumentModule(M);
    benchmark::DoNotOptimize(R.NumInductionUpdates);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_InstrumentOneKernel)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// The analyze stage on one instrumented kernel of range(0) sites.
void BM_AnalyzeOneKernel(benchmark::State &State) {
  std::unique_ptr<Module> M =
      loweredKernel(static_cast<unsigned>(State.range(0)));
  instrumentModule(*M);
  for (auto _ : State) {
    StaticAnalysisResult R = analyzeModuleDependence(*M);
    benchmark::DoNotOptimize(R.NumDoall + R.NumReduction + R.NumUnknown);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AnalyzeOneKernel)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// The 300-site program of salt range(0): the size of one of the five
/// programs a static-lint pass feeds the front end.
const std::string &lintSizeSource(benchmark::State &State) {
  static std::string Sources[5];
  std::string &Src = Sources[State.range(0)];
  if (Src.empty())
    Src = generateBenchmark(
              cyclingSiteSpec(300, 4, static_cast<unsigned>(State.range(0))))
              .Source;
  return Src;
}

/// Reports the front end's units per second of the timed loop.
void setFrontEndRates(benchmark::State &State, size_t Bytes, size_t Tokens) {
  auto Iters = static_cast<int64_t>(State.iterations());
  State.SetBytesProcessed(Iters * static_cast<int64_t>(Bytes));
  State.counters["tokens_per_s"] = benchmark::Counter(
      static_cast<double>(Iters) * static_cast<double>(Tokens),
      benchmark::Counter::kIsRate);
}

size_t countTokens(const std::string &Src) {
  std::vector<std::string> Errors;
  return lexSource(Src, Errors).size();
}

/// Lexing one lint-size program the way parseMiniC does: the Lexer's
/// token stream, which lexSource only collects into a vector.
void BM_LexSource(benchmark::State &State) {
  const std::string &Src = lintSizeSource(State);
  size_t Tokens = 0;
  for (auto _ : State) {
    std::vector<std::string> Errors;
    Lexer Lex(Src, Errors);
    Tokens = 1;
    while (Lex.next().Kind != TokKind::Eof)
      ++Tokens;
    benchmark::DoNotOptimize(Tokens);
  }
  setFrontEndRates(State, Src.size(), Tokens);
}
BENCHMARK(BM_LexSource)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// parseMiniC (lex, parse, free the AST) over one lint-size program.
void BM_ParseMiniC(benchmark::State &State) {
  const std::string &Src = lintSizeSource(State);
  for (auto _ : State) {
    ParseResult PR = parseMiniC(Src, "lint.c");
    if (!PR.succeeded())
      State.SkipWithError("parse failed");
    benchmark::DoNotOptimize(PR.Program.Functions.data());
  }
  setFrontEndRates(State, Src.size(), countTokens(Src));
}
BENCHMARK(BM_ParseMiniC)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// lowerProgram over one parsed lint-size program, in IR instructions/s.
void BM_LowerProgram(benchmark::State &State) {
  const std::string &Src = lintSizeSource(State);
  ParseResult PR = parseMiniC(Src, "lint.c");
  size_t Insts = 0;
  for (auto _ : State) {
    LowerResult LR = lowerProgram(PR.Program);
    if (!LR.succeeded())
      State.SkipWithError("lowering failed");
    Insts = 0;
    for (const Function &F : LR.M->Functions)
      for (const BasicBlock &BB : F.Blocks)
        Insts += BB.Insts.size();
  }
  setFrontEndRates(State, Src.size(), countTokens(Src));
  State.counters["insts_per_s"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * static_cast<double>(Insts),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LowerProgram)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

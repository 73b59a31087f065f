//===- bench/bench_tab_overhead.cpp - §4.4 instrumentation overhead -------===//
//
// Regenerates the §4.4 overhead claim: code instrumented with the HCPA
// infrastructure runs ~50x slower than gprof-style profiling. Here the
// baseline is plain interpretation (a gprof-style time profile costs
// almost nothing on top of that: one counter per region entry), and the
// measurement is the same interpreter driving the full shadow-memory
// runtime. google-benchmark reports both; the ratio is the overhead
// factor. The execute stage's parts perfbench cannot separate follow:
// tape decode, and HCPA consumption of synthetic event batches with no
// interpreter attached.
//
//===----------------------------------------------------------------------===//

#include "compress/Dictionary.h"
#include "instrument/Instrumenter.h"
#include "interp/Interpreter.h"
#include "interp/Tape.h"
#include "parser/Lower.h"
#include "rt/KremlinRuntime.h"
#include "suite/PaperSuite.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

/// Compiles + instruments tracking.c once for all measurements.
const Module &trackingModule() {
  static std::unique_ptr<Module> M = [] {
    LowerResult LR = compileMiniC(trackingSource(), "tracking.c");
    if (!LR.succeeded())
      std::abort();
    instrumentModule(*LR.M);
    return std::move(LR.M);
  }();
  return *M;
}

void BM_PlainExecution(benchmark::State &State) {
  const Module &M = trackingModule();
  Interpreter Interp(M);
  uint64_t Instructions = 0;
  for (auto _ : State) {
    ExecResult R = Interp.run();
    if (!R.Ok)
      State.SkipWithError("execution failed");
    Instructions += R.DynInstructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_PlainExecution)->Unit(benchmark::kMillisecond);

void BM_HcpaInstrumentedExecution(benchmark::State &State) {
  const Module &M = trackingModule();
  Interpreter Interp(M);
  uint64_t Instructions = 0;
  for (auto _ : State) {
    DictionaryCompressor Dict;
    KremlinConfig Cfg;
    Cfg.NumLevels = static_cast<unsigned>(State.range(0));
    KremlinRuntime RT(Cfg, Dict);
    ExecResult R = Interp.run(&RT);
    if (!R.Ok)
      State.SkipWithError("execution failed");
    Instructions += R.DynInstructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
// Depth-window ablation: narrower windows cost less (the paper's
// command-line flag for partitioned collection exists for exactly this
// trade).
BENCHMARK(BM_HcpaInstrumentedExecution)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// --- Isolated hook cost -------------------------------------------------
//
// The interpreted baseline above pays interpretation on both sides, which
// hides the instrumentation cost a native binary would see. These two
// benchmarks isolate it: the cost of one HCPA hook (per executed
// instruction, at a given region depth) vs. the cost of a gprof-style
// profiler's work (a counter bump per region entry, amortized per
// instruction — effectively one increment). Their ratio is the
// apples-to-apples version of the paper's "~50x slower than
// gprof-instrumented code".

/// A sink that discards summaries (isolates the hook and consumption
/// paths).
class NullSink : public RegionSummarySink {
public:
  SummaryChar intern(DynRegionSummary) override { return 0; }
  void onRootExit(SummaryChar) override {}
};

void BM_HcpaHookPerInstruction(benchmark::State &State) {
  NullSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(/*NumRegs=*/64);
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (unsigned D = 0; D < Depth; ++D)
    RT.enterRegion(0);
  ValueId Reg = 0;
  for (auto _ : State) {
    RT.onOp(Opcode::Add, (Reg + 2) % 64, Reg % 64, (Reg + 1) % 64,
            /*BreakDepA=*/false);
    ++Reg;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HcpaHookPerInstruction)->Arg(2)->Arg(6)->Arg(12);

void BM_GprofStyleHookPerInstruction(benchmark::State &State) {
  // gprof's runtime work amortized per instruction: one counter bump.
  volatile uint64_t Counter = 0;
  for (auto _ : State)
    Counter = Counter + 1;
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_GprofStyleHookPerInstruction);

// --- Execute-stage parts --------------------------------------------------

/// Module -> tape decode cost (paid once per profiled execution).
void BM_TapeDecode(benchmark::State &State) {
  const Module &M = trackingModule();
  std::vector<uint64_t> GlobalBase(M.Globals.size(), 0);
  for (auto _ : State) {
    ModuleTape Tape(M, GlobalBase);
    benchmark::DoNotOptimize(Tape.Funcs.data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TapeDecode);

ProfEvent opEvent(Opcode Op, uint32_t Dst, uint32_t A, uint32_t B) {
  ProfEvent E;
  E.Kind = static_cast<uint8_t>(EvKind::Op);
  E.Opc = static_cast<uint8_t>(Op);
  E.A = Dst;
  E.B = A;
  E.C = B;
  return E;
}

/// consumeBatch on a synthetic arithmetic-heavy batch: the suite's measured
/// event mix is dominated by plain ops, so this is the consumption hot
/// path (dispatch + watermark-checked slot loop) with no producer cost.
void BM_ConsumeBatchOps(benchmark::State &State) {
  NullSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(/*NumRegs=*/64);
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (unsigned D = 0; D < Depth; ++D)
    RT.enterRegion(D);
  std::vector<ProfEvent> Batch;
  Batch.reserve(ProfEventBatchSize);
  for (size_t I = 0; I < ProfEventBatchSize; ++I)
    Batch.push_back(opEvent(Opcode::Add, (I + 2) % 64, I % 64, (I + 1) % 64));
  for (auto _ : State)
    RT.consumeBatch(Batch.data(), Batch.size());
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Batch.size()));
}
BENCHMARK(BM_ConsumeBatchOps)->Arg(2)->Arg(6)->Arg(12);

/// consumeBatch across a region boundary: enter/exit plus a burst of ops —
/// exercises the structural events (instance retag, summary interning)
/// that a pure op batch skips.
void BM_ConsumeBatchRegionCycle(benchmark::State &State) {
  NullSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(/*NumRegs=*/64);
  RT.enterRegion(0);
  std::vector<ProfEvent> Batch;
  Batch.reserve(ProfEventBatchSize);
  for (size_t I = 0; I + 34 <= ProfEventBatchSize;) {
    ProfEvent Enter;
    Enter.Kind = static_cast<uint8_t>(EvKind::RegionEnter);
    Enter.A = 1;
    Batch.push_back(Enter);
    ++I;
    for (unsigned K = 0; K < 32; ++K, ++I)
      Batch.push_back(
          opEvent(Opcode::Add, (I + 2) % 64, I % 64, (I + 1) % 64));
    ProfEvent Exit;
    Exit.Kind = static_cast<uint8_t>(EvKind::RegionExit);
    Exit.A = 1;
    Batch.push_back(Exit);
    ++I;
  }
  for (auto _ : State)
    RT.consumeBatch(Batch.data(), Batch.size());
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Batch.size()));
}
BENCHMARK(BM_ConsumeBatchRegionCycle);

/// Frame push/pop churn: the call-heavy path whose per-call cost the
/// watermark scheme collapses from a cell memset to a row-watermark clear.
void BM_ConsumeBatchCallChurn(benchmark::State &State) {
  NullSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(/*NumRegs=*/64);
  RT.enterRegion(0);
  std::vector<ProfEvent> Batch;
  Batch.reserve(ProfEventBatchSize);
  for (size_t I = 0; I + 8 <= ProfEventBatchSize;) {
    ProfEvent Push;
    Push.Kind = static_cast<uint8_t>(EvKind::PushFrame);
    Push.A = 96;
    Batch.push_back(Push);
    ++I;
    for (unsigned K = 0; K < 6; ++K, ++I)
      Batch.push_back(
          opEvent(Opcode::Add, (I + 2) % 64, I % 64, (I + 1) % 64));
    ProfEvent Pop;
    Pop.Kind = static_cast<uint8_t>(EvKind::PopFrame);
    Batch.push_back(Pop);
    ++I;
  }
  for (auto _ : State)
    RT.consumeBatch(Batch.data(), Batch.size());
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Batch.size()));
}
BENCHMARK(BM_ConsumeBatchCallChurn);

} // namespace

BENCHMARK_MAIN();

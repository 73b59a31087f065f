//===- tests/RuntimeTest.cpp - shadow memory and KremLib runtime ----------===//

#include "TestUtil.h"

#include "rt/ShadowMemory.h"

#include <new>

using namespace kremlin;
using namespace kremlin::test;

namespace {

// --- ShadowMemory unit tests -------------------------------------------------

/// The time word \p Addr holds at level \p Slot for region instance
/// \p Tag, read as the runtime's loads read it: one page lookup, then the
/// tag check (a missing page or a stale tag reads as 0).
Time cellTime(const ShadowMemory &Mem, uint64_t Addr, unsigned Slot,
              uint64_t Tag) {
  const ShadowCell *Cells = Mem.wordCells(Addr);
  return Cells && Cells[Slot].Tag == Tag ? Cells[Slot].T : 0;
}

/// Stores time \p T for instance \p Tag at level \p Slot of word \p Addr,
/// as the runtime's stores do: the page is allocated on first touch, and
/// the write is dropped when the allocation is refused.
void storeCell(ShadowMemory &Mem, uint64_t Addr, unsigned Slot, uint64_t Tag,
               Time T) {
  if (ShadowCell *Cells = Mem.wordCellsForWrite(Addr)) {
    Cells[Slot].Tag = Tag;
    Cells[Slot].T = T;
  }
}

TEST(ShadowMemory, ReadsZeroWhenUntouched) {
  ShadowMemory Mem(8);
  EXPECT_EQ(cellTime(Mem, 0, 0, 1), 0u);
  EXPECT_EQ(cellTime(Mem, 123456, 7, 99), 0u);
  EXPECT_EQ(Mem.allocatedSegments(), 0u);
}

TEST(ShadowMemory, WriteThenReadSameTag) {
  ShadowMemory Mem(8);
  storeCell(Mem, 100, 3, /*Tag=*/42, /*T=*/777);
  EXPECT_EQ(cellTime(Mem, 100, 3, 42), 777u);
  // Different slot or address: still zero.
  EXPECT_EQ(cellTime(Mem, 100, 2, 42), 0u);
  EXPECT_EQ(cellTime(Mem, 101, 3, 42), 0u);
}

TEST(ShadowMemory, StaleTagReadsZero) {
  ShadowMemory Mem(8);
  storeCell(Mem, 100, 3, /*Tag=*/42, /*T=*/777);
  EXPECT_EQ(cellTime(Mem, 100, 3, /*Tag=*/43), 0u);
  // Rewriting with the new tag replaces the cell.
  storeCell(Mem, 100, 3, 43, 5);
  EXPECT_EQ(cellTime(Mem, 100, 3, 43), 5u);
  EXPECT_EQ(cellTime(Mem, 100, 3, 42), 0u);
}

TEST(ShadowMemory, LazySegmentAllocation) {
  ShadowMemory Mem(4, /*SegmentWords=*/256);
  EXPECT_EQ(Mem.allocatedSegments(), 0u);
  storeCell(Mem, 0, 0, 1, 1);
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  storeCell(Mem, 255, 0, 1, 1); // Same segment.
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  storeCell(Mem, 256, 0, 1, 1); // Next segment.
  EXPECT_EQ(Mem.allocatedSegments(), 2u);
  storeCell(Mem, 256 * 50, 0, 1, 1); // Far segment; the gap stays unallocated.
  EXPECT_EQ(Mem.allocatedSegments(), 3u);
  EXPECT_GT(Mem.allocatedBytes(), 0u);
}

TEST(ShadowMemory, ReleaseRangeFreesWholeSegments) {
  ShadowMemory Mem(4, /*SegmentWords=*/256);
  for (uint64_t A = 0; A < 1024; A += 64)
    storeCell(Mem, A, 0, 1, A + 1);
  EXPECT_EQ(Mem.allocatedSegments(), 4u);
  // Release the middle two segments exactly.
  Mem.releaseRange(256, 512);
  EXPECT_EQ(Mem.allocatedSegments(), 2u);
  EXPECT_EQ(cellTime(Mem, 256, 0, 1), 0u);
  EXPECT_EQ(cellTime(Mem, 0, 0, 1), 1u);
  // Partially covered segments must survive.
  Mem.releaseRange(3, 100);
  EXPECT_EQ(cellTime(Mem, 0, 0, 1), 1u);
}

// --- Runtime behaviour through profiled execution ----------------------------

TEST(Runtime, WorkCountsLatencyUnits) {
  ProfiledRun Run = profileSource(R"(
    int main() {
      int a = 1;
      int b = a + 2;
      int c = b * 3;
      return c;
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  // add + mul: consts and moves are free, and the final ret executes after
  // the function region has exited. Work is small and positive.
  EXPECT_GE(Main->TotalWork, 2u);
  EXPECT_LE(Main->TotalWork, 8u);
}

TEST(Runtime, SerialChainCpEqualsWork) {
  // A pure dependence chain: every op depends on the previous one, so at
  // the function level cp == chain length.
  ProfiledRun Run = profileSource(R"(
    int main() {
      int x = 1;
      x = x * 3;
      x = x + 5;
      x = x * 2;
      x = x - 7;
      return x;
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  EXPECT_NEAR(Main->TotalParallelism, 1.0, 0.35);
}

TEST(Runtime, IndependentOpsOverlap) {
  ProfiledRun Run = profileSource(R"(
    int main() {
      int a = 3 * 5;
      int b = 4 * 6;
      int c = 7 * 2;
      int d = 9 * 9;
      return a + b + (c + d);
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  // Four independent muls + a 2-level add tree: TP around 2+.
  EXPECT_GT(Main->TotalParallelism, 1.8);
}

TEST(Runtime, MemoryCarriesDependences) {
  // The dependence flows through the array cell: serial at function level.
  ProfiledRun Run = profileSource(R"(
    int a[2];
    int main() {
      a[0] = 1;
      a[1] = a[0] * 3;
      a[0] = a[1] * 7;
      a[1] = a[0] + a[1];
      return a[1];
    }
  )");
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  EXPECT_LT(Main->TotalParallelism, 2.6);
}

TEST(Runtime, AntiAndOutputDependencesIgnored) {
  // Overwriting a cell (output dep) and writing after reading (anti dep)
  // must NOT serialize: only flow dependences count (§4.1).
  ProfiledRun Run = profileSource(R"(
    int a[1];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        a[0] = i * 3 + 1; // Output dependence across iterations only.
        s = s + a[0] % 7;
      }
      return s;
    }
  )");
  const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(L, nullptr);
  // Despite every iteration touching a[0], iterations overlap: within an
  // iteration the read sees its own store (flow), but no cross-iteration
  // chain exists once anti/output deps are ignored and s is a reduction.
  EXPECT_GT(L->SelfParallelism, 20.0);
}

TEST(Runtime, DepthWindowLimitsTracking) {
  // With a 1-level window only the outermost region gets a measured cp;
  // deeper regions fall back to cp == work (serial assumption), but all
  // work totals stay exact.
  const char *Src = R"(
    int a[16];
    int main() {
      for (int i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
      return a[5];
    }
  )";
  KremlinConfig Narrow;
  Narrow.NumLevels = 1;
  ProfiledRun NarrowRun = profileSource(Src, Narrow);
  ProfiledRun WideRun = profileSource(Src);

  const RegionProfileEntry *NarrowMain =
      findRegion(NarrowRun, RegionKind::Function, "main");
  const RegionProfileEntry *WideMain =
      findRegion(WideRun, RegionKind::Function, "main");
  ASSERT_NE(NarrowMain, nullptr);
  ASSERT_NE(WideMain, nullptr);
  EXPECT_EQ(NarrowMain->TotalWork, WideMain->TotalWork);

  const RegionProfileEntry *NarrowLoop =
      findRegion(NarrowRun, RegionKind::Loop, "main");
  const RegionProfileEntry *WideLoop =
      findRegion(WideRun, RegionKind::Loop, "main");
  ASSERT_NE(NarrowLoop, nullptr);
  ASSERT_NE(WideLoop, nullptr);
  // Outside the window: cp == work at the loop level.
  EXPECT_EQ(NarrowLoop->TotalCp, NarrowLoop->TotalWork);
  EXPECT_LT(WideLoop->TotalCp, WideLoop->TotalWork);
}

TEST(Runtime, MinLevelSkipsShallowLevels) {
  // MinLevel=1: level 0 (main) untracked, loop level tracked — the paper's
  // partitioned-collection flag.
  const char *Src = R"(
    int a[16];
    int main() {
      for (int i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
      return a[5];
    }
  )";
  KremlinConfig Cfg;
  Cfg.MinLevel = 1;
  ProfiledRun Run = profileSource(Src, Cfg);
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  const RegionProfileEntry *Loop = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(Main, nullptr);
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Main->TotalCp, Main->TotalWork); // Untracked: serial fallback.
  EXPECT_LT(Loop->TotalCp, Loop->TotalWork); // Tracked normally.
}

TEST(Runtime, InstanceCountsAndIterations) {
  ProfiledRun Run = profileSource(R"(
    int square(int x) { return x * x; }
    int main() {
      int s = 0;
      for (int t = 0; t < 3; t = t + 1) {
        for (int i = 0; i < 5; i = i + 1) { s = s + square(i); }
      }
      return s;
    }
  )");
  EXPECT_EQ(Run.Exec.ExitValue, 90);
  const RegionProfileEntry *Sq =
      findRegion(Run, RegionKind::Function, "square");
  ASSERT_NE(Sq, nullptr);
  EXPECT_EQ(Sq->Instances, 15u);
  const RegionProfileEntry *Outer = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->Instances, 1u);
  EXPECT_EQ(Outer->TotalChildren, 3u);
  const RegionProfileEntry *Inner =
      findRegion(Run, RegionKind::Loop, "main", /*Skip=*/1);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Instances, 3u);
  EXPECT_EQ(Inner->TotalChildren, 15u);
}

TEST(Runtime, StatsCounters) {
  std::unique_ptr<Module> M = compileOrDie(R"(
    int a[4];
    int main() {
      a[0] = 1;
      a[1] = a[0] + 1;
      return a[1];
    }
  )");
  DictionaryCompressor Dict;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Dict);
  Interpreter I(*M);
  ExecResult R = I.run(&RT);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(RT.stats().Stores, 2u);
  EXPECT_EQ(RT.stats().Loads, 2u);
  EXPECT_EQ(RT.stats().DynRegionEntries, 1u);
  EXPECT_GT(R.DynInstructions, 4u);
}

// --- Page pool and frame-row watermarks ----------------------------------

TEST(ShadowMemory, PoolRecyclesReleasedPagesZeroed) {
  ShadowMemory Mem(4, /*SegmentWords=*/256);
  for (uint64_t A = 0; A < 1024; A += 64)
    storeCell(Mem, A, 0, /*Tag=*/1, /*T=*/A + 1);
  EXPECT_EQ(Mem.allocatedSegments(), 4u);
  Mem.releaseRange(0, 1024);
  EXPECT_EQ(Mem.allocatedSegments(), 0u);
  EXPECT_EQ(Mem.releasedSegments(), 4u);
  // A write to a far page must be served from the pool (no new slab page)
  // and the recycled page must come back zeroed: the old tags would
  // otherwise alias a later region instance.
  storeCell(Mem, /*Addr=*/1 << 20, 0, /*Tag=*/1, /*T=*/9);
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
  EXPECT_EQ(cellTime(Mem, 1 << 20, 0, 1), 9u);
  EXPECT_EQ(cellTime(Mem, (1 << 20) + 1, 0, 1), 0u);
  EXPECT_EQ(cellTime(Mem, 0, 0, 1), 0u); // Released page is detached.
}

TEST(ShadowMemory, PeakBytesIsHighWaterMark) {
  ShadowMemory Mem(4, /*SegmentWords=*/256);
  uint64_t PageBytes = 256 * 4 * sizeof(ShadowCell);
  for (uint64_t A = 0; A < 1024; A += 256)
    storeCell(Mem, A, 0, 1, 1);
  Mem.releaseRange(0, 512);
  storeCell(Mem, 4096, 0, 1, 1); // Served from the pool: no new high.
  EXPECT_EQ(Mem.allocatedBytes(), 3 * PageBytes);
  EXPECT_EQ(Mem.peakBytes(), 4 * PageBytes);
}

TEST(ShadowMemory, ByteBudgetTripsWithStatusAndDropsWrites) {
  // Budget for exactly one page of 4-level cells.
  uint64_t PageBytes = 256 * 4 * sizeof(ShadowCell);
  ShadowMemory Mem(4, /*SegmentWords=*/256, /*ByteBudget=*/PageBytes);
  storeCell(Mem, 0, 0, 1, 7);
  EXPECT_TRUE(Mem.status().ok());
  EXPECT_EQ(cellTime(Mem, 0, 0, 1), 7u);
  // Second page exceeds the budget: the write is dropped, the status
  // records ResourceExhausted, and existing pages stay readable.
  storeCell(Mem, 4096, 0, 1, 9);
  EXPECT_FALSE(Mem.status().ok());
  EXPECT_EQ(Mem.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(cellTime(Mem, 4096, 0, 1), 0u);
  EXPECT_EQ(cellTime(Mem, 0, 0, 1), 7u);
  EXPECT_EQ(Mem.allocatedSegments(), 1u);
}

TEST(Runtime, ShadowBudgetTripSurfacesOnShortRuns) {
  // The budget trips inside the run's final event batch, after the last
  // engine-side guardrail poll — the end-of-run check must still fail the
  // execution instead of reporting success with a tripped runtime.
  std::unique_ptr<Module> M = compileOrDie(R"(
    int big[100000];
    int main() {
      int s = 0;
      for (int i = 0; i < 100000; i = i + 4096) { big[i] = i; s = s + 1; }
      return s;
    }
  )");
  instrumentModule(*M);
  DictionaryCompressor Dict;
  KremlinConfig Cfg;
  Cfg.MaxShadowBytes = // Exactly one shadow page fits.
      ShadowMemory::DefaultSegmentWords * Cfg.NumLevels * sizeof(ShadowCell);
  KremlinRuntime RT(Cfg, Dict);
  Interpreter I(*M);
  ExecResult R = I.run(&RT);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err.code(), ErrorCode::ResourceExhausted);
}

TEST(Runtime, ShadowBudgetTripStopsALongRunEarly) {
  // The interpreter's guardrail poll lags the runtime by up to a ring of
  // event batches. It must still stop the producer long before the end of
  // a long loop: the budget trips on the second shadow page (iteration
  // 4096 of 500000), so the failed run executes a sliver of the unbounded
  // run's instructions instead of finishing and failing at the end.
  std::unique_ptr<Module> M = compileOrDie(R"(
    int a[8192];
    int main() {
      int s = 0;
      for (int i = 0; i < 500000; i = i + 1) { a[i % 8192] = i; s = s + 1; }
      return s;
    }
  )");
  instrumentModule(*M);
  Interpreter I(*M);

  DictionaryCompressor FullDict;
  KremlinConfig Cfg;
  KremlinRuntime Full(Cfg, FullDict);
  ExecResult Unbounded = I.run(&Full);
  ASSERT_TRUE(Unbounded.Ok) << Unbounded.Error;

  DictionaryCompressor Dict;
  Cfg.MaxShadowBytes = // Exactly one shadow page fits.
      ShadowMemory::DefaultSegmentWords * Cfg.NumLevels * sizeof(ShadowCell);
  KremlinRuntime RT(Cfg, Dict);
  ExecResult R = I.run(&RT);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err.code(), ErrorCode::ResourceExhausted);
  EXPECT_LT(R.DynInstructions, Unbounded.DynInstructions / 10);
}

/// Collects every interned summary so tests can assert on work/cp exactly.
class CaptureSink : public RegionSummarySink {
public:
  std::vector<DynRegionSummary> Summaries;
  SummaryChar intern(DynRegionSummary S) override {
    Summaries.push_back(std::move(S));
    return static_cast<SummaryChar>(Summaries.size() - 1);
  }
  void onRootExit(SummaryChar) override {}
};

/// Fails every intern, as an allocation failure inside the runtime would.
class ThrowingSink : public RegionSummarySink {
public:
  SummaryChar intern(DynRegionSummary) override { throw std::bad_alloc(); }
  void onRootExit(SummaryChar) override {}
};

TEST(Runtime, ConsumerExceptionReachesTheCallerAfterTheJoin) {
  // The runtime consumes events on the calling thread while a helper thread
  // interprets. An exception thrown by the runtime must stop the helper and
  // reach run()'s caller; the interpreter stays usable afterwards.
  std::unique_ptr<Module> M = compileOrDie(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 200000; i = i + 1) { s = s + i % 7; }
      return s % 1000;
    }
  )");
  instrumentModule(*M);
  Interpreter I(*M);
  ThrowingSink Throwing;
  KremlinRuntime Failing(KremlinConfig(), Throwing);
  EXPECT_THROW(I.run(&Failing), std::bad_alloc);

  DictionaryCompressor Dict;
  KremlinRuntime RT(KremlinConfig(), Dict);
  ExecResult R = I.run(&RT);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, I.run().ExitValue);
}

TEST(Runtime, RecycledFrameRowsReadZero) {
  // Frames are recycled by depth without clearing their cell arrays; the
  // per-row watermark must make stale times from a previous call at the
  // same depth unreadable. A leak here would lift cp from 10 to 11.
  CaptureSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(8);
  RT.enterRegion(0);
  RT.pushFrame(8);
  for (int I = 0; I < 10; ++I) // Serial chain: reg 3 available at t=10.
    RT.onOp(Opcode::Add, 3, I ? 3 : NoValue, NoValue, false);
  RT.popFrame();
  RT.pushFrame(8); // Recycled storage; reg 3 must read as 0.
  RT.onOp(Opcode::Add, 4, 3, NoValue, false);
  RT.popFrame();
  RT.exitRegion(0);
  ASSERT_EQ(Sink.Summaries.size(), 1u);
  EXPECT_EQ(Sink.Summaries[0].Work, 11u);
  EXPECT_EQ(Sink.Summaries[0].Cp, 10u);
}

TEST(Runtime, CopyParamHonorsSourceWatermark) {
  CaptureSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(8);
  RT.enterRegion(0);
  for (int I = 0; I < 5; ++I) // Caller reg 2 available at t=5.
    RT.onOp(Opcode::Add, 2, I ? 2 : NoValue, NoValue, false);
  RT.pushFrame(8);
  RT.copyParamFromCaller(/*DstParam=*/0, /*SrcArgInCaller=*/2);
  RT.copyParamFromCaller(/*DstParam=*/1, /*SrcArgInCaller=*/6); // Unwritten.
  RT.onOp(Opcode::Add, 2, 0, NoValue, false); // Completes at 6.
  RT.onOp(Opcode::Add, 3, 1, NoValue, false); // Unwritten param: t=1.
  RT.popFrame();
  RT.exitRegion(0);
  ASSERT_EQ(Sink.Summaries.size(), 1u);
  EXPECT_EQ(Sink.Summaries[0].Work, 7u);
  EXPECT_EQ(Sink.Summaries[0].Cp, 6u); // Not 7: param 1 carried no time.
}

TEST(Runtime, ConstWriteResetsRowWatermark) {
  // A const-class op makes its register "available at 0": the row reset
  // must hide the earlier chain, so a dependent op completes at t=1.
  CaptureSink Sink;
  KremlinConfig Cfg;
  KremlinRuntime RT(Cfg, Sink);
  RT.pushFrame(8);
  RT.enterRegion(0);
  for (int I = 0; I < 7; ++I)
    RT.onOp(Opcode::Add, 3, I ? 3 : NoValue, NoValue, false);
  RT.onOp(Opcode::ConstInt, 3, NoValue, NoValue, false); // Free; resets row.
  RT.onOp(Opcode::Add, 4, 3, NoValue, false);
  RT.exitRegion(0);
  ASSERT_EQ(Sink.Summaries.size(), 1u);
  EXPECT_EQ(Sink.Summaries[0].Work, 8u); // Consts are latency-free.
  EXPECT_EQ(Sink.Summaries[0].Cp, 7u);   // The dependent op ran off t=0.
}

} // namespace

//===- bench/bench_micro_shadow.cpp - Shadow-memory microbenchmarks -------===//
//
// Microbenchmarks for the two-level shadow memory, through the one access
// path execute runs: a load or store looks its word's page up once
// (wordCells / wordCellsForWrite), tallies one timestamp read or write per
// level (noteReads / noteWrites), and then checks or writes every level's
// cell. Each item is one word across all its levels. The cases time
// stores, loads whose tags match, the per-level tag rejection, lazy page
// allocation, and the level-array width trade-off. These quantify the
// design choices DESIGN.md calls out (fixed-size level arrays + instance
// tags vs. reallocating per-region shadow state).
//
//===----------------------------------------------------------------------===//

#include "rt/ShadowMemory.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

/// Writes time \p T with tag \p Tag into every level of word \p Addr, as
/// the runtime's onStore does.
void storeWord(ShadowMemory &Mem, unsigned Levels, uint64_t Addr,
               uint64_t Tag, Time T) {
  Mem.noteWrites(Levels);
  ShadowCell *Cells = Mem.wordCellsForWrite(Addr);
  if (!Cells)
    return;
  for (unsigned Slot = 0; Slot < Levels; ++Slot) {
    Cells[Slot].Tag = Tag;
    Cells[Slot].T = T;
  }
}

/// The latest time any level of word \p Addr holds for tag \p Tag, as the
/// runtime's onLoad reads it (a stale tag or a missing page reads as 0).
Time loadWord(const ShadowMemory &Mem, unsigned Levels, uint64_t Addr,
              uint64_t Tag) {
  Mem.noteReads(Levels);
  const ShadowCell *Cells = Mem.wordCells(Addr);
  Time Max = 0;
  if (Cells)
    for (unsigned Slot = 0; Slot < Levels; ++Slot)
      if (Cells[Slot].Tag == Tag && Cells[Slot].T > Max)
        Max = Cells[Slot].T;
  return Max;
}

void BM_ShadowStoreWord(benchmark::State &State) {
  unsigned Levels = static_cast<unsigned>(State.range(0));
  ShadowMemory Mem(Levels);
  uint64_t Addr = 0;
  for (auto _ : State) {
    storeWord(Mem, Levels, Addr % 65536, /*Tag=*/7, /*T=*/Addr);
    benchmark::ClobberMemory();
    ++Addr;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowStoreWord)->Arg(4)->Arg(16)->Arg(64);

void BM_ShadowLoadWordHit(benchmark::State &State) {
  unsigned Levels = static_cast<unsigned>(State.range(0));
  ShadowMemory Mem(Levels);
  for (uint64_t A = 0; A < 65536; ++A)
    storeWord(Mem, Levels, A, /*Tag=*/7, /*T=*/A);
  uint64_t Addr = 0;
  uint64_t Sum = 0;
  for (auto _ : State) {
    Sum += loadWord(Mem, Levels, Addr % 65536, /*Tag=*/7);
    ++Addr;
  }
  benchmark::DoNotOptimize(Sum);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowLoadWordHit)->Arg(4)->Arg(16)->Arg(64);

/// Stale-tag loads: the instance-tag rejection path (every level reads as
/// 0 without branching on region identity) — the mechanism that lets one
/// level slot serve every same-depth region.
void BM_ShadowLoadWordStaleTag(benchmark::State &State) {
  unsigned Levels = static_cast<unsigned>(State.range(0));
  ShadowMemory Mem(Levels);
  for (uint64_t A = 0; A < 65536; ++A)
    storeWord(Mem, Levels, A, /*Tag=*/7, /*T=*/A);
  uint64_t Addr = 0;
  uint64_t Sum = 0;
  for (auto _ : State) {
    Sum += loadWord(Mem, Levels, Addr % 65536, /*Tag=*/99); // Mismatch.
    ++Addr;
  }
  benchmark::DoNotOptimize(Sum);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowLoadWordStaleTag)->Arg(16);

/// Cold loads through unallocated pages (lazy allocation fast path).
void BM_ShadowLoadWordUnallocated(benchmark::State &State) {
  unsigned Levels = static_cast<unsigned>(State.range(0));
  ShadowMemory Mem(Levels);
  storeWord(Mem, Levels, 0, 1, 1); // One touched page only.
  uint64_t Addr = 1 << 20;
  uint64_t Sum = 0;
  for (auto _ : State) {
    Sum += loadWord(Mem, Levels, Addr, 1);
    Addr += 4096;
    if (Addr > (1ull << 26))
      Addr = 1 << 20;
  }
  benchmark::DoNotOptimize(Sum);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowLoadWordUnallocated)->Arg(16);

} // namespace

BENCHMARK_MAIN();

//===- bench/bench_micro_shadow.cpp - Shadow-memory microbenchmarks -------===//
//
// Microbenchmarks for the two-level shadow memory: read/write throughput,
// the cost of the per-level tag check, lazy segment allocation, and the
// level-array width trade-off. These quantify the design choices DESIGN.md
// calls out (fixed-size level arrays + instance tags vs. reallocating
// per-region shadow state).
//
//===----------------------------------------------------------------------===//

#include "rt/ShadowMemory.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

void BM_ShadowWrite(benchmark::State &State) {
  unsigned Levels = static_cast<unsigned>(State.range(0));
  ShadowMemory Mem(Levels);
  uint64_t Addr = 0;
  for (auto _ : State) {
    Mem.write(Addr % 65536, Addr % Levels, /*Tag=*/7, /*T=*/Addr);
    ++Addr;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowWrite)->Arg(4)->Arg(16)->Arg(64);

void BM_ShadowReadHit(benchmark::State &State) {
  unsigned Levels = static_cast<unsigned>(State.range(0));
  ShadowMemory Mem(Levels);
  for (uint64_t A = 0; A < 65536; ++A)
    Mem.write(A, A % Levels, /*Tag=*/7, /*T=*/A);
  uint64_t Addr = 0;
  uint64_t Sum = 0;
  for (auto _ : State) {
    Sum += Mem.read(Addr % 65536, Addr % Levels, /*Tag=*/7);
    ++Addr;
  }
  benchmark::DoNotOptimize(Sum);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowReadHit)->Arg(4)->Arg(16)->Arg(64);

/// Stale-tag reads: the instance-tag rejection path (returns 0 without
/// branching on region identity) — the mechanism that lets one level slot
/// serve every same-depth region.
void BM_ShadowReadStaleTag(benchmark::State &State) {
  ShadowMemory Mem(16);
  for (uint64_t A = 0; A < 65536; ++A)
    Mem.write(A, 3, /*Tag=*/7, /*T=*/A);
  uint64_t Addr = 0;
  uint64_t Sum = 0;
  for (auto _ : State) {
    Sum += Mem.read(Addr % 65536, 3, /*Tag=*/99); // Mismatch: reads as 0.
    ++Addr;
  }
  benchmark::DoNotOptimize(Sum);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowReadStaleTag);

/// Cold reads through unallocated segments (lazy allocation fast path).
void BM_ShadowReadUnallocated(benchmark::State &State) {
  ShadowMemory Mem(16);
  Mem.write(0, 0, 1, 1); // One touched segment only.
  uint64_t Addr = 1 << 20;
  uint64_t Sum = 0;
  for (auto _ : State) {
    Sum += Mem.read(Addr, 0, 1);
    Addr += 4096;
    if (Addr > (1ull << 26))
      Addr = 1 << 20;
  }
  benchmark::DoNotOptimize(Sum);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ShadowReadUnallocated);

} // namespace

BENCHMARK_MAIN();

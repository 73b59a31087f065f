//===- bench/bench_micro_compress.cpp - Compression microbenchmarks -------===//
//
// Microbenchmarks for the dictionary compressor: interning throughput on
// repetitive streams (the common case: a loop's identical iterations), on
// unique streams (worst case: every summary new), and multiplicity
// recovery from the compressed form (the "plan without decompressing"
// operation of §4.4).
//
//===----------------------------------------------------------------------===//

#include "compress/Dictionary.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

void BM_InternRepetitive(benchmark::State &State) {
  DictionaryCompressor Dict;
  uint64_t I = 0;
  for (auto _ : State) {
    DynRegionSummary S;
    S.Static = 5;
    S.Work = 100;
    S.Cp = 10;
    benchmark::DoNotOptimize(Dict.intern(std::move(S)));
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_InternRepetitive);

void BM_InternUnique(benchmark::State &State) {
  DictionaryCompressor Dict;
  uint64_t I = 0;
  for (auto _ : State) {
    DynRegionSummary S;
    S.Static = 5;
    S.Work = 100 + I;
    S.Cp = 10 + (I % 91);
    benchmark::DoNotOptimize(Dict.intern(std::move(S)));
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_InternUnique);

/// Builds a deep dictionary (a chain of nested regions, each repeating its
/// child 100x) and measures multiplicity recovery: each alphabet entry
/// stands for up to 100^depth dynamic regions.
void BM_ComputeMultiplicities(benchmark::State &State) {
  DictionaryCompressor Dict;
  SummaryChar Child = 0;
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (unsigned D = 0; D < Depth; ++D) {
    DynRegionSummary S;
    S.Static = D;
    S.Work = 100 * (D + 1);
    S.Cp = 10 * (D + 1);
    if (D > 0)
      S.Children.emplace_back(Child, 100);
    Child = Dict.intern(std::move(S));
  }
  Dict.onRootExit(Child);
  for (auto _ : State)
    benchmark::DoNotOptimize(Dict.computeMultiplicities());
  State.SetItemsProcessed(State.iterations() * Depth);
}
BENCHMARK(BM_ComputeMultiplicities)->Arg(8)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();

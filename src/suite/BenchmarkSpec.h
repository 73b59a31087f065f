//===- suite/BenchmarkSpec.h - Synthetic workload specs ----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specification DSL for the synthetic benchmark suite that stands in for
/// NPB 2.3 and the C programs of SPEC OMP2001 (see DESIGN.md's
/// substitution table). A benchmark is a list of *sites*; each site is a
/// loop pattern with a known parallelism character, and carries flags
/// saying whether the third-party MANUAL parallelization covered it.
/// Site kinds:
///
///  - HotDoall        hot, fully parallel loop (typically in both plans);
///  - SmallDoall      modest parallel loop below Kremlin's ideal-speedup
///                    threshold but kept by MANUAL (the negligible-benefit
///                    regions right of Figure 7's dotted line);
///  - ColdDoall       parallel init loop executed once (low coverage);
///  - Doacross        partial cross-iteration overlap (DOACROSS);
///  - SerialChain     genuinely serial loop (SP ~ 1);
///  - ReductionHeavy  reduction loop with ample work (the ep case);
///  - ReductionLight  reduction loop too small to amortize OpenMP reduction
///                    overhead (the art/ammp case);
///  - CoarseNest      parallel outer loop whose MANUAL version parallelized
///                    only the inner loops — the coarse-vs-fine shape that
///                    makes Kremlin beat MANUAL on sp and is;
///  - ChildrenNest    DOACROSS outer enclosing DOALL children whose summed
///                    gain beats the parent — the ft/lu case where greedy
///                    planning fails and the DP matters.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUITE_BENCHMARKSPEC_H
#define KREMLIN_SUITE_BENCHMARKSPEC_H

#include <string>
#include <vector>

namespace kremlin {

enum class SiteKind : unsigned char {
  HotDoall,
  SmallDoall,
  ColdDoall,
  Doacross,
  SerialChain,
  /// Serial across iterations but with wide straight-line ILP inside each
  /// iteration: classic CPA (total-parallelism) reports it as parallel,
  /// self-parallelism correctly reports ~1 — the §6.2 false-positive class.
  IlpSerial,
  ReductionHeavy,
  ReductionLight,
  CoarseNest,
  ChildrenNest
};

const char *siteKindName(SiteKind Kind);

/// One loop site.
struct SiteSpec {
  SiteKind Kind = SiteKind::HotDoall;
  /// Iterations of the (outer) loop.
  unsigned Iters = 256;
  /// Body work knob: number of arithmetic stages per iteration.
  unsigned Work = 8;
  /// CoarseNest/ChildrenNest: number of inner loops.
  unsigned InnerCount = 2;
  /// CoarseNest/ChildrenNest: inner loop iterations.
  unsigned InnerIters = 64;
  /// MANUAL parallelized the outer loop of this site.
  bool ManualOuter = false;
  /// MANUAL parallelized the inner loops of this site.
  bool ManualInner = false;
  /// CoarseNest: the inner loops carry a cross-iteration chain (DOACROSS,
  /// SP ~ (3*Work+8)/4) — the fine-grained choice is SP-limited while the
  /// coarse outer loop is fully parallel (the sp/is coarse-vs-fine story).
  bool InnerDoacross = false;
};

/// A whole synthetic benchmark.
struct BenchmarkSpec {
  std::string Name;
  /// Outer time-step iterations (serial across steps by construction).
  unsigned Timesteps = 4;
  /// Sites per generated kernel function.
  unsigned SitesPerKernel = 4;
  std::vector<SiteSpec> Sites;

  /// Appends \p Count copies of \p Site.
  void add(const SiteSpec &Site, unsigned Count = 1) {
    for (unsigned I = 0; I < Count; ++I)
      Sites.push_back(Site);
  }
};

/// \p Sites loop sites that cycle every SiteKind, with Work, the inner
/// loop count and both iteration counts varied by site index (\p Salt
/// shifts the pattern), \p SitesPerKernel to a kernel function. With
/// SitesPerKernel == Sites it is one big function: the front end's size
/// probe.
BenchmarkSpec cyclingSiteSpec(unsigned Sites, unsigned SitesPerKernel,
                              unsigned Salt = 0);

} // namespace kremlin

#endif // KREMLIN_SUITE_BENCHMARKSPEC_H

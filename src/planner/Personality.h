//===- planner/Personality.h - Planner personalities -------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Planner personalities (paper §2.3, §5): a personality combines the
/// profile's metrics with parallelization-system and machine constraints to
/// produce an ordered plan. Implemented personalities:
///
///  - OpenMPPersonality (§5.1): loop-focused; forbids nested parallel
///    regions (at most one plan region per root-leaf path); thresholds
///    SP >= 5.0, ideal whole-program speedup >= 0.1% (DOALL) / 3%
///    (DOACROSS); reduction loops must carry enough work to amortize
///    OpenMP's reduction overhead; region selection by bottom-up dynamic
///    programming (parent vs. the sum of its children's best plans — the
///    ft/lu case where greedy fails).
///  - CilkPersonality (§5.2): nesting-aware, lower thresholds.
///  - WorkOnlyPersonality: the gprof-style baseline (coverage only) —
///    Figure 9's "work" bar.
///  - SelfPFilterPersonality: coverage + self-parallelism cutoff, no
///    system model — Figure 9's "self parallelism" bar.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PLANNER_PERSONALITY_H
#define KREMLIN_PLANNER_PERSONALITY_H

#include "analysis/StaticDependence.h"
#include "planner/Plan.h"
#include "profile/ParallelismProfile.h"

#include <map>
#include <memory>
#include <set>
#include <string>

namespace kremlin {

/// Tunable thresholds. Defaults are the paper's published settings.
struct PlannerOptions {
  /// Minimum self-parallelism for a region to be exploited (§5.1: 5.0).
  double MinSelfParallelism = 5.0;
  /// Minimum ideal whole-program speedup for a DOALL region, in percent
  /// (§5.1: 0.1%).
  double MinDoallSpeedupPct = 0.1;
  /// Minimum ideal whole-program speedup for a DOACROSS region, in percent
  /// (§5.1: 3%).
  double MinDoacrossSpeedupPct = 3.0;
  /// Reduction loops need this much average work per dynamic instance to
  /// amortize OpenMP reduction overhead (the art/ammp-vs-ep constraint).
  double MinReductionWork = 5000.0;
  /// Regions the user declared too hard to parallelize (exclusion-list
  /// replanning, §3).
  std::set<RegionId> Excluded;
  /// WorkOnly/SelfPFilter baselines: minimum coverage percent to keep a
  /// region on the hotspot list.
  double MinCoveragePct = 0.1;
  /// Ablation: replace the OpenMP planner's bottom-up DP with the naive
  /// greedy algorithm §5.1 describes (repeatedly select the region with
  /// the largest potential speedup, excluding its ancestors/descendants).
  bool Greedy = false;
  /// Static loop-dependence verdicts by region (from the lint/analyze
  /// stage). ProvablySerial regions are demoted by parallelism-aware
  /// personalities; other verdicts annotate plan items for the UI.
  std::map<RegionId, LoopVerdict> StaticVerdicts;
};

/// A planning strategy. Stateless; plan() may be called repeatedly.
class Personality {
public:
  virtual ~Personality() = default;

  virtual std::string name() const = 0;

  /// Produces an ordered plan for \p Profile under \p Opts.
  virtual Plan plan(const ParallelismProfile &Profile,
                    const PlannerOptions &Opts) const = 0;
};

/// §5.1's OpenMP planner.
std::unique_ptr<Personality> makeOpenMPPersonality();
/// §5.2's Cilk++ planner.
std::unique_ptr<Personality> makeCilkPersonality();
/// gprof-style coverage-only baseline (Figure 9 "work").
std::unique_ptr<Personality> makeWorkOnlyPersonality();
/// Coverage + self-parallelism filter (Figure 9 "self parallelism").
std::unique_ptr<Personality> makeSelfPFilterPersonality();

/// Looks a personality up by name ("openmp", "cilk", "work", "selfp");
/// returns nullptr for unknown names.
std::unique_ptr<Personality> makePersonality(const std::string &Name);

/// Shared helper: the PlanItem metrics for region \p R.
PlanItem makePlanItem(const ParallelismProfile &Profile, RegionId R);

} // namespace kremlin

#endif // KREMLIN_PLANNER_PERSONALITY_H

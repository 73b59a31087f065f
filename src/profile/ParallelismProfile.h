//===- profile/ParallelismProfile.h - Per-region aggregates -----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallelism profile: per-static-region aggregation of the compressed
/// HCPA trace. Implements the paper's two key metrics:
///
///   self-parallelism (Eq. 1):
///       SP(R) = (Σ_k cp(child(R,k)) + SW(R)) / cp(R)
///   self-work (Eq. 2):
///       SW(R) = work(R) − Σ_k work(child(R,k))
///
/// computed per dictionary entry (never per dynamic region — §4.4's
/// planning-on-compressed-data property) and aggregated per static region
/// by work-weighted averaging. Also derives total-parallelism (plain CPA's
/// work/cp, the §6.2 comparison baseline), execution coverage, loop
/// classification (DOALL by SP ≈ iteration-count equivalence, §5.1), the
/// dynamic region graph (observed static nesting with work weights), and
/// the region tree every planner, the machine simulator and every report
/// view read: one node per executed region, under its heaviest observed
/// parent.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PROFILE_PARALLELISMPROFILE_H
#define KREMLIN_PROFILE_PARALLELISMPROFILE_H

#include "compress/Dictionary.h"
#include "ir/Module.h"

#include <string>
#include <vector>

namespace kremlin {

/// How a loop region executes, judged from its profile.
enum class LoopClass : unsigned char {
  NotLoop,
  Doall,    ///< SP tracks the iteration count: fully parallel iterations.
  Doacross, ///< 1 << SP << iterations: cross-iteration overlap only.
  Serial    ///< SP ≈ 1.
};

const char *loopClassName(LoopClass C);

/// Aggregated profile of one static region.
struct RegionProfileEntry {
  RegionId Id = NoRegion;
  bool Executed = false;

  /// Dynamic instances observed.
  uint64_t Instances = 0;
  /// Σ work over all instances.
  uint64_t TotalWork = 0;
  /// Σ cp over all instances.
  uint64_t TotalCp = 0;
  /// Σ dynamic children over all instances (loop: total iterations).
  uint64_t TotalChildren = 0;
  /// Exclusive work (Eq. 2 summed over instances): TotalWork minus the
  /// work of every observed child occurrence. Σ over regions is program
  /// work.
  uint64_t SelfWork = 0;

  /// Work-weighted mean self-parallelism (≥ 1).
  double SelfParallelism = 1.0;
  /// Work-weighted mean total-parallelism work/cp (≥ 1) — classic CPA.
  double TotalParallelism = 1.0;
  /// Percent of whole-program work spent in this region [0, 100].
  double CoveragePct = 0.0;

  LoopClass Class = LoopClass::NotLoop;

  /// Mean iterations per instance (loops).
  double avgIterations() const {
    return Instances ? static_cast<double>(TotalChildren) /
                           static_cast<double>(Instances)
                     : 0.0;
  }
  double avgWork() const {
    return Instances ? static_cast<double>(TotalWork) /
                           static_cast<double>(Instances)
                     : 0.0;
  }
};

/// One observed parent->child static nesting edge, work-weighted.
struct RegionEdge {
  RegionId Parent = NoRegion;
  RegionId Child = NoRegion;
  /// Σ over dynamic occurrences of child under parent of the child's work.
  uint64_t Work = 0;
  /// Dynamic occurrence count.
  uint64_t Count = 0;
};

/// The whole-program parallelism profile.
class ParallelismProfile {
public:
  /// Builds the profile for \p M from a completed profiling run's
  /// dictionary. \p DoallTolerance is the relative slack for the SP ≈
  /// iteration-count DOALL check. Several runs (paper §2.4) are profiled
  /// as one dictionary: aggregate::mergeProfiles combines them first.
  ParallelismProfile(const Module &M, const DictionaryCompressor &Dict,
                     double DoallTolerance = 0.2);

  const RegionProfileEntry &entry(RegionId R) const { return Entries[R]; }
  const std::vector<RegionProfileEntry> &entries() const { return Entries; }
  const std::vector<RegionEdge> &edges() const { return Edges; }
  uint64_t programWork() const { return ProgramWork; }
  const Module &module() const { return *M; }

  /// The root region (main's Function region), NoRegion if nothing ran.
  RegionId rootRegion() const { return Root; }

  // The region tree, built once here for the planners, the machine
  // simulator and every report view. Every executed region, Body regions
  // included, is one node under its heaviest observed parent other than
  // itself (ties go to the lowest parent id). Regions with no such parent,
  // and regions on a parent cycle (mutual recursion), hang under the root.

  /// Tree parent of \p R; NoRegion for the root and unexecuted regions.
  RegionId parent(RegionId R) const { return Parent[R]; }
  /// Tree children of \p R, ascending by id.
  const std::vector<RegionId> &children(RegionId R) const {
    return Children[R];
  }
  /// Every executed region, parents before children (empty if nothing
  /// ran).
  const std::vector<RegionId> &preorder() const { return Preorder; }

  /// Serializes per-region rows for logging/tests.
  std::string toText() const;

private:
  const Module *M;
  std::vector<RegionProfileEntry> Entries;
  std::vector<RegionEdge> Edges;
  std::vector<RegionId> Parent;
  std::vector<std::vector<RegionId>> Children;
  std::vector<RegionId> Preorder;
  uint64_t ProgramWork = 0;
  RegionId Root = NoRegion;

  void buildTree();
};

/// Self-parallelism of one summary given its children's summaries — the
/// paper's Eq. 1/2 evaluated on dictionary entries. Exposed for tests.
double summarySelfParallelism(const DynRegionSummary &S,
                              const std::vector<DynRegionSummary> &Alphabet);

} // namespace kremlin

#endif // KREMLIN_PROFILE_PARALLELISMPROFILE_H

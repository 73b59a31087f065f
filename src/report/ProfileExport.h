//===- report/ProfileExport.h - Profile explorer exports --------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports the HCPA parallelism profile as artifacts a programmer can
/// actually look at (the gprof lesson: a profiler is its report). The
/// profile's region tree — the one the planners chose the plan from — is
/// laid out as a work-weighted tree whose frames carry self-parallelism
/// annotations, then rendered as:
///
///  - speedscope JSON ("sampled" profile; one sample per tree node,
///    weighted by self-work) — drop the file on speedscope.app and the
///    flamegraph shows where work and self-parallelism live;
///  - collapsed-stacks text (flamegraph.pl / speedscope both ingest it);
///  - a per-region timeline JSON: every unique dynamic behavior of a
///    region (one per dictionary-alphabet entry, multiplicity-weighted)
///    with its work, cp, and self-parallelism;
///  - a terminal tree view via TablePrinter.
///
/// All exports operate on the compressed profile (never the raw dynamic
/// region stream) — the §4.4 planning-on-compressed-data property extends
/// to reporting.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_REPORT_PROFILEEXPORT_H
#define KREMLIN_REPORT_PROFILEEXPORT_H

#include "compress/Dictionary.h"
#include "profile/ParallelismProfile.h"

#include <string>
#include <vector>

namespace kremlin {
namespace report {

/// Shared knobs for every export format.
struct ReportOptions {
  /// Prune tree nodes whose subtree coverage is below this percentage;
  /// pruned subtrees fold back into the parent's self-work so totals are
  /// preserved.
  double MinCoveragePct = 0.0;
  /// Keep only the first N rows of the tree view and the N highest-work
  /// regions of the timeline; 0 means unlimited. speedscope and collapsed
  /// output ignore it.
  unsigned Top = 0;
};

/// One node of the region tree, preorder. Each executed static region
/// appears once, under its tree parent (ParallelismProfile::parent).
struct RegionTreeNode {
  RegionId Region = NoRegion;
  /// Index of the parent node in RegionTree::Nodes, -1 for the root.
  int Parent = -1;
  unsigned Depth = 0;
  /// Σ SelfWork over the region's subtree. A recursive region's TotalWork
  /// counts its nested calls; this does not, so coverage stays ≤ 100%.
  uint64_t Work = 0;
  /// The region's exclusive work plus its pruned children's work — the
  /// flamegraph sample weight.
  uint64_t SelfWork = 0;
  /// Dynamic instances of the region.
  uint64_t Visits = 0;
  double SelfParallelism = 1.0;
  /// Work / programWork, percent.
  double CoveragePct = 0.0;
};

/// The pruned region tree every export renders from.
struct RegionTree {
  std::vector<RegionTreeNode> Nodes; ///< Preorder; Nodes[0] is the root.
  uint64_t ProgramWork = 0;
};

/// Lays out the profile's region tree, applying MinCoveragePct pruning.
/// Children are ordered by descending work, ties by ascending region id.
/// Σ SelfWork over the nodes is the program's work. Costs O(regions),
/// plus sorting each region's children.
RegionTree buildRegionTree(const ParallelismProfile &P,
                           const ReportOptions &Opts = ReportOptions());

/// Human frame label: "name file.c(4-9) [loop SP=7.9]".
std::string frameLabel(const Module &M, const RegionProfileEntry &E);

/// Speedscope file-format JSON (validated: output always parses). \p Name
/// labels the profile inside the UI.
std::string exportSpeedscope(const ParallelismProfile &P, const RegionTree &T,
                             const std::string &Name);

/// Collapsed-stacks text: one "frame;frame;frame weight" line per tree
/// node with nonzero self-work. Frame labels are space-free so
/// flamegraph.pl's last-space split stays unambiguous.
std::string exportCollapsed(const ParallelismProfile &P, const RegionTree &T);

/// Per-region timeline JSON: for each reported region, one entry per
/// unique dynamic behavior (dictionary-alphabet entry) carrying work, cp,
/// self-parallelism, and the multiplicity with which it occurred.
std::string exportTimeline(const ParallelismProfile &P,
                           const DictionaryCompressor &Dict,
                           const ReportOptions &Opts = ReportOptions());

/// Terminal tree view (TablePrinter-aligned).
std::string renderTree(const ParallelismProfile &P, const RegionTree &T,
                       const ReportOptions &Opts = ReportOptions());

} // namespace report
} // namespace kremlin

#endif // KREMLIN_REPORT_PROFILEEXPORT_H

//===- analysis/Dominators.h - (Post-)dominator trees -----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator and post-dominator tree computation over Kremlin IR CFGs using
/// the Cooper-Harvey-Kennedy iterative algorithm. Post-dominators are
/// computed against a virtual exit node that all Ret blocks feed, so
/// functions with multiple returns are handled uniformly. Each tree also
/// numbers its nodes in DFS order, so a dominance query compares two
/// intervals instead of walking idoms (a function of N sequential loops
/// has a tree about N deep).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_DOMINATORS_H
#define KREMLIN_ANALYSIS_DOMINATORS_H

#include "ir/Function.h"

#include <vector>

namespace kremlin {

/// A computed (post-)dominator tree. Node indices are block ids; for
/// post-dominator trees there is one extra node, the virtual exit, with
/// index numBlocks().
class DomTree {
public:
  /// Immediate dominator per node; the root's idom is itself. Unreachable
  /// blocks have idom == NoBlock.
  std::vector<BlockId> IDom;
  BlockId Root = NoBlock;
  /// DFS entry and exit numbers of each reachable node in the tree: A
  /// dominates B iff A's interval encloses B's.
  std::vector<uint32_t> DfsIn, DfsOut;
  /// The reachable nodes in reverse postorder of the graph, root first.
  std::vector<BlockId> Rpo;

  /// True if \p A dominates \p B (reflexively); false when either is
  /// unreachable. O(1).
  bool dominates(BlockId A, BlockId B) const {
    return isReachable(A) && isReachable(B) && DfsIn[A] <= DfsIn[B] &&
           DfsOut[B] <= DfsOut[A];
  }

  /// Immediate dominator of \p B (NoBlock for the root or unreachable).
  BlockId idom(BlockId B) const {
    if (B >= IDom.size() || B == Root)
      return NoBlock;
    return IDom[B];
  }

  bool isReachable(BlockId B) const {
    return B < IDom.size() && IDom[B] != NoBlock;
  }
};

/// Computes the dominator tree of \p F (rooted at the entry block).
DomTree computeDominators(const Function &F);

/// Computes the post-dominator tree of \p F. The tree is rooted at a
/// virtual exit node whose id is F.Blocks.size(); every Ret block has an
/// edge to it.
DomTree computePostDominators(const Function &F);

/// Immediate post-dominator of \p B that is a real block, skipping the
/// virtual exit (returns NoBlock when \p B is post-dominated only by the
/// virtual exit).
BlockId immediatePostDominator(const DomTree &PDT, const Function &F,
                               BlockId B);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_DOMINATORS_H

//===- analysis/Loops.h - Natural loop detection ----------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and nesting. A back edge T->H (where H dominates
/// T) defines a loop with header H whose body is every block that can reach
/// T without passing through H. Loops sharing a header are merged. Nesting
/// is derived by body-set containment: a loop's parent is the smallest
/// other loop containing its header.
///
/// The frontend also emits Loop regions structurally; this analysis is the
/// independent source of truth used by induction-variable detection and by
/// tests that validate the frontend's region markers against the CFG.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_LOOPS_H
#define KREMLIN_ANALYSIS_LOOPS_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <vector>

namespace kremlin {

/// One natural loop.
struct Loop {
  BlockId Header = NoBlock;
  /// Blocks with a back edge to the header.
  std::vector<BlockId> Latches;
  /// All member blocks (header included), sorted.
  std::vector<BlockId> Blocks;
  /// Index of the innermost enclosing loop in LoopInfo::Loops, or -1.
  int Parent = -1;
  /// Nesting depth (outermost loops have depth 1).
  unsigned Depth = 1;

  bool contains(BlockId B) const;
};

/// All loops of a function, outermost-first within each nest.
struct LoopInfo {
  std::vector<Loop> Loops;
};

/// Detects the natural loops of \p F, whose dominator tree is \p DT. Loops
/// are ordered by header; each costs the size of its body.
LoopInfo computeLoops(const Function &F, const DomTree &DT);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_LOOPS_H

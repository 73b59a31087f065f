//===- analysis/Induction.h - Induction/reduction detection -----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static detection of induction- and reduction-variable updates (paper
/// §4.1, "Resolving False and Easy-to-Break Dependencies"). These updates
/// create serial chains (i = i + 1, s = s + a[i]) that a programmer can
/// trivially break (privatization / OpenMP reduction clauses), so Kremlin's
/// shadow-memory update rule ignores the dependence on the old value for
/// instructions marked here.
///
/// Detected patterns, per natural loop:
///  - scalar induction:  v = v ⊕ c   with c loop-invariant (⊕ ∈ +,-);
///  - scalar reduction:  v = v ⊕ e   with e loop-variant but independent of
///    v (⊕ ∈ +,-,*; float or int);
///  - memory reduction:  a[idx] = a[idx] ⊕ e  recognized by structural
///    equality of the load/store address expressions.
///
/// The pass mutates the IR: it sets Instruction::IsInductionUpdate /
/// IsReductionUpdate and normalizes commutative operands so the broken
/// dependence is always operand A.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_INDUCTION_H
#define KREMLIN_ANALYSIS_INDUCTION_H

#include "analysis/FunctionAnalysis.h"
#include "ir/Function.h"

namespace kremlin {

/// Counts of updates marked by the pass.
struct InductionMarkResult {
  unsigned NumInductionUpdates = 0;
  unsigned NumReductionUpdates = 0;
  unsigned NumMemoryReductions = 0;
};

/// Detects and marks induction/reduction updates in \p F, using its loops
/// and def index from \p FA. Each loop costs the size of its body: the
/// candidates are the destinations of the loop's own Moves.
InductionMarkResult markInductionAndReductions(Function &F,
                                               const FunctionAnalysis &FA);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_INDUCTION_H

//===- analysis/DataFlow.h - Register uses, carried scalar deps -*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register dataflow over one natural loop: the registers each instruction
/// reads, and loop-carried scalar dependence detection, which runs bitvector
/// fixpoints over the loop's own blocks only.
///
/// These feed the static loop-dependence analyzer (StaticDependence.h),
/// which cross-checks the dynamic self-parallelism numbers HCPA measures:
/// a dependence proven here holds on *every* input, not just the profiled
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_DATAFLOW_H
#define KREMLIN_ANALYSIS_DATAFLOW_H

#include "analysis/FunctionAnalysis.h"
#include "ir/Function.h"

#include <vector>

namespace kremlin {

/// One static read of a virtual register.
struct UseSite {
  BlockId BB = NoBlock;
  unsigned Idx = 0;
  ValueId Value = NoValue;
};

/// Calls \p Visit on each register operand \p I (an instruction of \p F)
/// reads, in operand order (the Result is excluded). Covers every opcode:
/// binary/unary operands, Load/Store addresses and values, call arguments
/// (from \p F's argument pool), branch conditions, and return values.
template <typename Fn>
void forEachUse(const Function &F, const Instruction &I, Fn &&Visit) {
  auto Use = [&Visit](ValueId V) {
    if (V != NoValue)
      Visit(V);
  };
  if (isBinaryOp(I.Op)) {
    Use(I.A);
    Use(I.B);
    return;
  }
  if (isUnaryOp(I.Op)) {
    Use(I.A);
    return;
  }
  switch (I.Op) {
  case Opcode::Load:
    Use(I.A);
    break;
  case Opcode::Store:
    Use(I.A);
    Use(I.B);
    break;
  case Opcode::Call:
    for (ValueId Arg : F.callArgs(I))
      Use(Arg);
    break;
  case Opcode::Ret:
  case Opcode::CondBr:
    Use(I.A);
    break;
  default:
    break; // Constants, addresses, Br, region markers: no register reads.
  }
}

/// A scalar dependence carried by a loop's back edge: a use that may read
/// the value an in-loop definition produced in a *previous* iteration.
struct ScalarCarriedDep {
  ValueId Value = NoValue;
  /// Representative in-loop definition feeding the next iteration.
  DefSite Def;
  /// In-loop use that may observe the previous iteration's value.
  UseSite Use;
  /// The dependence occurs on every consecutive iteration pair: both
  /// endpoints execute each iteration and no same-iteration definition
  /// can satisfy the use instead.
  bool Certain = false;
  /// Every carried source is an induction/reduction update, which HCPA's
  /// shadow-memory rule ignores (paper §4.1) and a programmer can break
  /// with privatization or a reduction clause.
  bool Breakable = false;
};

/// Detects scalar dependences carried by the back edges of \p View's loop.
/// Costs the size of the loop, not of the function.
///
/// The carried sources, the definitions the back edge hands to the next
/// iteration, are found inside the loop: an in-loop definition is one when
/// it is its register's last in its block and a path over in-loop edges,
/// back edges excluded, leads from its block to the end of a latch without
/// passing another definition of the register. That is exactly whether the
/// definition reaches a latch's exit under whole-function reaching
/// definitions, provided the loop is left only from its header (a Ret has
/// no successor and does not count). Otherwise a path that leaves the body
/// and re-enters through the header could reach a latch no in-loop path
/// reaches. MiniC loops meet the condition: MiniC has no break, continue
/// or goto.
std::vector<ScalarCarriedDep> findLoopCarriedScalarDeps(const LoopView &View);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_DATAFLOW_H

//===- analysis/DataFlow.h - Reaching defs, carried scalar deps -*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dataflow framework over the register IR: reaching definitions
/// (classic gen/kill bitvector analysis, over the definitions of registers
/// defined in more than one block) and loop-carried scalar dependence
/// detection for natural loops.
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

#include <cstdint>
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

/// Reaching definitions for one function, over the definitions of
/// registers defined in two or more blocks. A register defined in one block
/// is killed nowhere else, so the last of its definitions there reaches
/// every block the CFG lets it reach and the others reach none: it needs
/// no bit. The per-block OUT sets are one flat blocks x words bitvector
/// array, and each block's GEN/KILL comes from its own def range.
class ReachingDefs {
public:
  /// \p FA must be \p F's analysis.
  ReachingDefs(const Function &F, const FunctionAnalysis &FA);

  /// True when definition \p DefIdx (an index into DefIndex::Defs) has a
  /// bit: its register is defined in two or more blocks.
  bool tracks(unsigned DefIdx) const {
    return DefIdx < BitOf.size() && BitOf[DefIdx] != Untracked;
  }

  /// True when tracked definition \p DefIdx is in the OUT set of \p BB.
  /// Asking about an untracked definition is a programming error.
  bool defReachesOut(unsigned DefIdx, BlockId BB) const;

private:
  static constexpr unsigned Untracked = UINT32_MAX;

  /// Bit of each definition in the OUT rows, or Untracked.
  std::vector<unsigned> BitOf;
  size_t NumBlocks = 0;
  unsigned Words = 0;
  /// OUT[B] is Out[B * Words .. (B + 1) * Words).
  std::vector<uint64_t> Out;
};

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

/// Detects scalar dependences carried by \p L's back edges. \p FA and
/// \p RD must be \p F's analysis and reaching definitions; \p Scratch is
/// \p F's per-loop arena (this marks \p L in it). Costs the size of the
/// loop, not of the function.
std::vector<ScalarCarriedDep>
findLoopCarriedScalarDeps(const Function &F, const FunctionAnalysis &FA,
                          const Loop &L, const ReachingDefs &RD,
                          LoopScratch &Scratch);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_DATAFLOW_H

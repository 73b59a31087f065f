//===- analysis/FunctionAnalysis.h - Per-function analyses ------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every static pass over one function needs, built once per function
/// by each stage that runs passes: the dominator tree, the natural loops
/// built from that tree, and one index of the function's register
/// definitions. Induction marking (instrument), mod/ref and the loop
/// dependence analyzer (analyze) all read it.
///
/// LoopScratch is the per-function arena for per-loop work: its arrays are
/// sized by the function once, and each loop touches only its own entries,
/// so the work per loop follows the loop's size, not the function's.
/// LoopView is one loop as the per-loop passes read it: it marks the loop
/// in the arena and answers the per-loop definition queries they share.
/// ArrayBase and basesMayAlias are the one array alias rule that
/// reduction marking and the loop analyzer share.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_FUNCTIONANALYSIS_H
#define KREMLIN_ANALYSIS_FUNCTIONANALYSIS_H

#include "analysis/Dominators.h"
#include "analysis/Loops.h"
#include "ir/Function.h"

#include <cstdint>
#include <span>
#include <vector>

namespace kremlin {

/// One static definition of a virtual register.
struct DefSite {
  BlockId BB = NoBlock;
  unsigned Idx = 0; ///< Instruction index within the block.
  ValueId Value = NoValue;
};

/// Every register definition of one function (value-producing
/// instructions whose Result is below NumValues), indexed three ways.
struct DefIndex {
  /// All definitions in block-major (block, index) order.
  std::vector<DefSite> Defs;
  /// Block B's definitions are Defs[BlockBegin[B] .. BlockBegin[B + 1]).
  std::vector<unsigned> BlockBegin;
  /// Register V's definitions, as ascending indices into Defs, are
  /// ByValue[ValueBegin[V] .. ValueBegin[V + 1]).
  std::vector<unsigned> ValueBegin;
  std::vector<unsigned> ByValue;

  /// Indices into Defs of the definitions of \p V (empty when out of range).
  std::span<const unsigned> defsOf(ValueId V) const {
    if (V == NoValue || V + 1 >= ValueBegin.size())
      return {};
    return {ByValue.data() + ValueBegin[V],
            ValueBegin[V + 1] - ValueBegin[V]};
  }
};

/// What an address register points into, as the static passes resolve
/// it: a global or frame array (the id is its array id), an array
/// parameter (the id is its register), or Unknown.
enum class ArrayBase : unsigned char { Global, Frame, Param, Unknown };

/// May bases (\p K1, \p Id1) and (\p K2, \p Id2) overlap? Identical
/// bases always do. Distinct globals never do, and a frame array meets no
/// other base (an activation cannot be its own caller). An array
/// parameter may alias any global or other parameter, and an Unknown base
/// anything.
inline bool basesMayAlias(ArrayBase K1, uint32_t Id1, ArrayBase K2,
                          uint32_t Id2) {
  if (K1 == ArrayBase::Unknown || K2 == ArrayBase::Unknown ||
      (K1 == K2 && Id1 == Id2))
    return true;
  if (K1 == ArrayBase::Frame || K2 == ArrayBase::Frame)
    return false;
  return K1 == ArrayBase::Param || K2 == ArrayBase::Param;
}

/// The per-function analyses a stage shares between its passes.
struct FunctionAnalysis {
  DomTree DT;
  /// Built from DT.
  LoopInfo LI;
  DefIndex Defs;
};

/// Indexes \p F's definitions by block and by register.
DefIndex buildDefIndex(const Function &F);

/// Computes \p F's dominator tree, its loops from that tree, and its def
/// index.
FunctionAnalysis buildFunctionAnalysis(const Function &F);

/// Per-function scratch for per-loop work. mark() makes one loop current
/// by stamping its blocks, so nothing needs clearing between loops; the
/// per-register slots are restored to NoSlot by whichever user set them.
class LoopScratch {
public:
  static constexpr unsigned NoSlot = UINT32_MAX;

  explicit LoopScratch(const Function &F)
      : BlockStamp(F.Blocks.size(), 0), BlockPos(F.Blocks.size(), 0),
        ValueSlot(F.NumValues, NoSlot) {}

  /// Makes \p L the current loop. O(|L.Blocks|); marking the current loop
  /// again is harmless.
  void mark(const Loop &L) {
    ++Stamp;
    for (unsigned P = 0; P < L.Blocks.size(); ++P) {
      BlockStamp[L.Blocks[P]] = Stamp;
      BlockPos[L.Blocks[P]] = P;
    }
  }

  /// True when \p B belongs to the current loop.
  bool inLoop(BlockId B) const {
    return B < BlockStamp.size() && BlockStamp[B] == Stamp;
  }

  /// Position of current-loop block \p B in its Loop::Blocks.
  unsigned pos(BlockId B) const { return BlockPos[B]; }

  /// One slot per register for loop-local numbering.
  std::vector<unsigned> &slots() { return ValueSlot; }

private:
  std::vector<uint32_t> BlockStamp;
  std::vector<unsigned> BlockPos;
  std::vector<unsigned> ValueSlot;
  /// The current loop's stamp. Blocks start at 0 and this starts above it,
  /// so no block is in a loop before the first mark().
  uint32_t Stamp = 1;
};

/// One loop of a function, as induction marking, the carried-scalar scan
/// and the loop analyzer read it. Constructing a view marks the loop in
/// the function's LoopScratch; the view answers for that loop until the
/// scratch marks another. Each query costs the size of the loop or of one
/// register's definition list, never the function.
class LoopView {
public:
  /// \p FA is \p F's analysis, \p L one of its loops and \p Scratch its
  /// per-loop arena; all must outlive the view.
  LoopView(const Function &F, const FunctionAnalysis &FA, const Loop &L,
           LoopScratch &Scratch)
      : F(F), FA(FA), L(L), Scratch(Scratch) {
    Scratch.mark(L);
  }

  const Function &F;
  const FunctionAnalysis &FA;
  const Loop &L;
  LoopScratch &Scratch;

  /// The instruction at definition site \p D.
  const Instruction &inst(const DefSite &D) const {
    return F.Blocks[D.BB].Insts[D.Idx];
  }

  /// True when \p B belongs to the loop.
  bool inLoop(BlockId B) const { return Scratch.inLoop(B); }

  /// The loop's only definition of \p V; nullptr when it has none or
  /// several.
  const DefSite *singleDef(ValueId V) const;

  /// True when the loop defines \p V.
  bool defines(ValueId V) const;

  /// True when \p B dominates every latch of the loop: it runs on every
  /// iteration that completes.
  bool dominatesAllLatches(BlockId B) const;
};

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_FUNCTIONANALYSIS_H

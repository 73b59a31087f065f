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
/// ArrayRoot and basesMayAlias are the one array alias rule that mod/ref,
/// reduction marking and the loop analyzer share, and DefChains holds the
/// def-chain queries they share: one definition lookup, one walk from an
/// address to its array, one chain comparison and one update-pair decode.
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
/// it: a global or frame array, an array parameter, or Unknown.
enum class ArrayBase : unsigned char { Global, Frame, Param, Unknown };

/// One array as the static passes name it. The id is the array id of a
/// global or frame array and the register of an array parameter; it is 0
/// for Unknown.
struct ArrayRoot {
  ArrayBase Kind = ArrayBase::Unknown;
  uint32_t Id = 0;

  bool operator==(const ArrayRoot &) const = default;
};

/// May arrays \p A and \p B overlap? Identical roots always do. Distinct
/// globals never do, and a frame array meets no other root (an activation
/// cannot be its own caller). An array parameter may alias any global or
/// other parameter, and an Unknown root anything.
inline bool basesMayAlias(ArrayRoot A, ArrayRoot B) {
  if (A.Kind == ArrayBase::Unknown || B.Kind == ArrayBase::Unknown || A == B)
    return true;
  if (A.Kind == ArrayBase::Frame || B.Kind == ArrayBase::Frame)
    return false;
  return A.Kind == ArrayBase::Param || B.Kind == ArrayBase::Param;
}

/// A def-chain walk looks up at most this many registers past the one it
/// starts from, and gives up beyond: the array walk, the chain comparison
/// and the loop analyzer's constant and affine folding.
constexpr unsigned MaxChainHops = 32;

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

  /// True when a chain of the loop's definitions can lead from \p V to a
  /// read of \p Target: a walk through every in-loop definition of each
  /// register it meets (chains cycle through loop-carried variables),
  /// conservatively true past 512 registers.
  bool dependsOn(ValueId V, ValueId Target) const;
};

/// The def-chain queries of the static passes, over one function and, for
/// the per-loop passes, one of its loops. Each follows a register to the one
/// definition that computes it: the function's only definition of it, or
/// none when it has several. Inside a loop, def() and arrayOf() let a
/// register the loop defines follow the loop's only definition of it
/// instead. functionDef(), sameValue() and updateOp() keep the function rule
/// there: a loop's only definition of a register the function also defines
/// before the loop may not have run yet in the current iteration (`a[i + 1]
/// = a[i] + 1` reads i before its update), and the copy `v = move t` of an
/// update reads the op's own t, which is defined once. Mod/ref asks with no
/// loop; induction marking, the carried-scalar scan and the loop analyzer
/// ask inside their loop.
class DefChains {
public:
  /// Queries over \p F with no loop; \p Defs is \p F's def index. Both
  /// must outlive the queries.
  DefChains(const Function &F, const DefIndex &Defs) : F(F), Defs(Defs) {}
  /// Queries inside \p View's loop, valid while the view is.
  explicit DefChains(const LoopView &View)
      : F(View.F), Defs(View.FA.Defs), Loop(&View) {}

  /// The definition \p V's chain follows, or nullptr when it has none.
  const Instruction *def(ValueId V) const { return lookup(V, Loop); }

  /// The function's only definition of \p V, even inside a loop, or
  /// nullptr when it has none or several.
  const Instruction *functionDef(ValueId V) const {
    return lookup(V, nullptr);
  }

  /// The array address register \p Addr points into, following Move and
  /// PtrAdd bases (a PtrAdd offset never changes the array) for at most
  /// MaxChainHops hops. A register the function never defines is the
  /// array parameter it names, when it is a parameter. When \p Offsets is
  /// given, the offset register of each PtrAdd passed is appended to it.
  ArrayRoot arrayOf(ValueId Addr,
                    std::vector<ValueId> *Offsets = nullptr) const;

  /// True when \p A and \p B are one register or structurally equal
  /// chains: the same opcodes over equal operands, down to equal constants,
  /// the same global or frame array, or the same register. Loads compare by
  /// address, so the caller must know no store runs between the two chains.
  ///
  /// A register defined by a copy `y = move x` holds x as it was at the
  /// copy, which may be an earlier statement or iteration. Unless
  /// \p FollowCopies, such a register equals only itself: that is exact
  /// for two chains of one statement, where a variable holds one value
  /// throughout (`y = x; x = i % 2; a[y] = a[x] + 1` writes the cell the
  /// next iteration reads). With \p FollowCopies, a copy on either side is
  /// compared by its source, which is exact only when nothing the source's
  /// chain reads is assigned between the copy and the other chain.
  bool sameValue(ValueId A, ValueId B, bool FollowCopies) const {
    return sameValue(A, B, FollowCopies, 0);
  }

  /// The marked op behind an update's copy: when \p Copy is `v = move t`
  /// and t's one definition (inside the loop, for a loop's queries) carries
  /// an induction or reduction mark, that definition; nullptr otherwise.
  const Instruction *updateOp(const Instruction &Copy) const;

private:
  /// The one lookup: inside \p Scope's loop, or function-wide when null.
  const Instruction *lookup(ValueId V, const LoopView *Scope) const;
  bool sameValue(ValueId A, ValueId B, bool FollowCopies,
                 unsigned Hops) const;

  const Function &F;
  const DefIndex &Defs;
  /// nullptr for queries with no loop.
  const LoopView *Loop = nullptr;
};

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_FUNCTIONANALYSIS_H

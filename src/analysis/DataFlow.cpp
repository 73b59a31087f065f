//===- analysis/DataFlow.cpp ----------------------------------------------===//

#include "analysis/DataFlow.h"

#include <algorithm>
#include <cassert>

using namespace kremlin;

namespace {

/// Clears bits [Lo, Hi) of \p Row.
void clearBitRange(uint64_t *Row, unsigned Lo, unsigned Hi) {
  for (unsigned Bit = Lo; Bit < Hi;) {
    unsigned First = Bit % 64;
    unsigned Count = std::min(64 - First, Hi - Bit);
    uint64_t Mask = Count == 64 ? ~0ull : ((1ull << Count) - 1) << First;
    Row[Bit / 64] &= ~Mask;
    Bit += Count;
  }
}

bool testBit(const uint64_t *Row, unsigned Bit) {
  return (Row[Bit / 64] >> (Bit % 64)) & 1;
}

void setBit(uint64_t *Row, unsigned Bit) {
  Row[Bit / 64] |= 1ull << (Bit % 64);
}

void clearBit(uint64_t *Row, unsigned Bit) {
  Row[Bit / 64] &= ~(1ull << (Bit % 64));
}

} // namespace

ReachingDefs::ReachingDefs(const Function &F, const FunctionAnalysis &FA)
    : BitOf(FA.Defs.Defs.size(), Untracked), NumBlocks(F.Blocks.size()) {
  const DefIndex &Defs = FA.Defs;
  // Track the registers defined in two or more blocks, numbered register
  // by register: each owns one contiguous bit range, which is what a block
  // defining it kills. (A register's defs are block-major, so its first
  // and last name its first and last defining block.)
  std::vector<unsigned> RangeBegin(F.NumValues, 0);
  unsigned NumBits = 0;
  for (ValueId V = 0; V < F.NumValues; ++V) {
    std::span<const unsigned> Of = Defs.defsOf(V);
    if (Of.empty() || Defs.Defs[Of.front()].BB == Defs.Defs[Of.back()].BB)
      continue;
    RangeBegin[V] = NumBits;
    for (unsigned D : Of)
      BitOf[D] = NumBits++;
  }
  Words = (NumBits + 63) / 64;
  Out.assign(NumBlocks * Words, 0);
  if (NumBlocks == 0 || Words == 0)
    return;

  // Each block's transfer function, one entry per tracked register it
  // defines: KILL that register's range, then GEN its last definition in
  // the block. Read from the block's own def range, last definition first.
  struct Effect {
    unsigned KillBegin, KillEnd, GenBit;
  };
  std::vector<Effect> Effects;
  std::vector<unsigned> EffectBegin = {0};
  std::vector<BlockId> SeenIn(F.NumValues, NoBlock);
  for (BlockId BB = 0; BB < NumBlocks; ++BB) {
    for (unsigned D = Defs.BlockBegin[BB + 1]; D-- > Defs.BlockBegin[BB];) {
      ValueId V = Defs.Defs[D].Value;
      if (BitOf[D] == Untracked || SeenIn[V] == BB)
        continue; // Untracked, or a later definition here already won.
      SeenIn[V] = BB;
      Effects.push_back(
          {RangeBegin[V],
           RangeBegin[V] + static_cast<unsigned>(Defs.defsOf(V).size()),
           BitOf[D]});
    }
    EffectBegin.push_back(static_cast<unsigned>(Effects.size()));
  }

  std::vector<std::vector<BlockId>> Preds(NumBlocks);
  for (BlockId BB = 0; BB < NumBlocks; ++BB) {
    if (!F.Blocks[BB].hasTerminator())
      continue;
    for (BlockId S : F.successors(BB))
      if (S < NumBlocks)
        Preds[S].push_back(BB);
  }

  // Reverse postorder first, so one pass carries facts along every
  // forward edge; unreachable blocks (which may still feed reachable
  // ones) follow.
  std::vector<BlockId> Order = FA.DT.Rpo;
  for (BlockId BB = 0; BB < NumBlocks; ++BB)
    if (!FA.DT.isReachable(BB))
      Order.push_back(BB);
  std::vector<uint64_t> Row(Words);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId BB : Order) {
      // OUT = GEN | (IN - KILL), with IN the union of the preds' OUT.
      std::fill(Row.begin(), Row.end(), 0);
      for (BlockId P : Preds[BB]) {
        const uint64_t *PredOut = &Out[P * Words];
        for (unsigned W = 0; W < Words; ++W)
          Row[W] |= PredOut[W];
      }
      for (unsigned E = EffectBegin[BB]; E < EffectBegin[BB + 1]; ++E) {
        clearBitRange(Row.data(), Effects[E].KillBegin, Effects[E].KillEnd);
        setBit(Row.data(), Effects[E].GenBit);
      }
      uint64_t *OutRow = &Out[BB * Words];
      if (!std::equal(Row.begin(), Row.end(), OutRow)) {
        std::copy(Row.begin(), Row.end(), OutRow);
        Changed = true;
      }
    }
  }
}

bool ReachingDefs::defReachesOut(unsigned DefIdx, BlockId BB) const {
  assert(tracks(DefIdx) &&
         "reaching definitions track only registers defined in two or more "
         "blocks");
  if (BB >= NumBlocks || !tracks(DefIdx))
    return false;
  return testBit(&Out[BB * Words], BitOf[DefIdx]);
}

std::vector<ScalarCarriedDep>
kremlin::findLoopCarriedScalarDeps(const Function &F,
                                   const FunctionAnalysis &FA, const Loop &L,
                                   const ReachingDefs &RD,
                                   LoopScratch &Scratch) {
  std::vector<ScalarCarriedDep> Deps;
  if (F.Blocks.empty() || F.NumValues == 0)
    return Deps;
  Scratch.mark(L);
  const DefIndex &DI = FA.Defs;
  std::vector<unsigned> &Local = Scratch.slots();

  // Carried registers, numbered locally in first-seen order, with their
  // carried sources: in-loop definitions surviving to a latch exit -- the
  // bindings the back edge hands to the next iteration. A register that
  // reaching definitions do not track is defined in one block only: its
  // last definition there is never killed, and every block of a natural
  // loop reaches a latch, so that definition is carried and the others
  // (killed in their own block) are not.
  std::vector<ValueId> Carried;
  std::vector<std::vector<unsigned>> Sources;
  for (BlockId B : L.Blocks)
    for (unsigned D = DI.BlockBegin[B]; D < DI.BlockBegin[B + 1]; ++D) {
      ValueId V = DI.Defs[D].Value;
      bool Reaches =
          RD.tracks(D)
              ? std::any_of(L.Latches.begin(), L.Latches.end(),
                            [&](BlockId T) { return RD.defReachesOut(D, T); })
              : D == DI.defsOf(V).back();
      if (!Reaches)
        continue;
      if (Local[V] == LoopScratch::NoSlot) {
        Local[V] = static_cast<unsigned>(Carried.size());
        Carried.push_back(V);
        Sources.emplace_back();
      }
      Sources[Local[V]].push_back(D);
    }
  if (Carried.empty())
    return Deps;

  // Sets over the carried registers, one row of Words per loop block
  // (indexed by position in L.Blocks).
  size_t NB = L.Blocks.size();
  unsigned Words = static_cast<unsigned>((Carried.size() + 63) / 64);
  auto Row = [Words](std::vector<uint64_t> &Set, size_t P) {
    return &Set[P * Words];
  };

  // Defined[P]: carried registers block P defines; InLoopDefs counts every
  // in-loop definition of each carried register.
  std::vector<uint64_t> Defined(NB * Words, 0);
  std::vector<unsigned> InLoopDefs(Carried.size(), 0);
  std::vector<std::vector<unsigned>> LoopPreds(NB);
  for (size_t P = 0; P < NB; ++P) {
    BlockId B = L.Blocks[P];
    for (unsigned D = DI.BlockBegin[B]; D < DI.BlockBegin[B + 1]; ++D) {
      unsigned C = Local[DI.Defs[D].Value];
      if (C == LoopScratch::NoSlot)
        continue;
      setBit(Row(Defined, P), C);
      ++InLoopDefs[C];
    }
    if (!F.Blocks[B].hasTerminator())
      continue;
    for (BlockId S : F.successors(B))
      if (Scratch.inLoop(S) && S != L.Header) // Back edges excluded.
        LoopPreds[Scratch.pos(S)].push_back(static_cast<unsigned>(P));
  }

  // Token pass: TokenIn[B] = carried registers whose previous-iteration
  // binding can still be live at B's entry. Seeded with every carried
  // register at the header; any definition of V inside the current
  // iteration kills V's token.
  //
  // SameIter pass: registers some current-iteration definition reaches (a
  // may analysis: gen-only, since any same-iteration def of V counts).
  std::vector<uint64_t> TokenIn(NB * Words, 0), SameIn(NB * Words, 0);
  for (unsigned C = 0; C < Carried.size(); ++C)
    setBit(Row(TokenIn, Scratch.pos(L.Header)), C);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t P = 0; P < NB; ++P) {
      if (L.Blocks[P] == L.Header)
        continue; // Header sets are the fixed seeds.
      uint64_t *Token = Row(TokenIn, P), *Same = Row(SameIn, P);
      for (unsigned Pred : LoopPreds[P]) {
        // TokenOut = TokenIn - Defined; SameOut = SameIn + Defined.
        const uint64_t *PT = Row(TokenIn, Pred), *PS = Row(SameIn, Pred),
                       *PD = Row(Defined, Pred);
        for (unsigned W = 0; W < Words; ++W) {
          uint64_t NewToken = Token[W] | (PT[W] & ~PD[W]);
          uint64_t NewSame = Same[W] | PS[W] | PD[W];
          Changed |= NewToken != Token[W] || NewSame != Same[W];
          Token[W] = NewToken;
          Same[W] = NewSame;
        }
      }
    }
  }

  auto Inst = [&F](const DefSite &D) -> const Instruction & {
    return F.Blocks[D.BB].Insts[D.Idx];
  };
  // True when every in-loop definition that can feed this value across the
  // back edge is an HCPA-breakable update: the marked op itself, or the
  // canonical `v = Move t` copy whose source op is marked.
  auto BreakableDef = [&](unsigned D) {
    const Instruction &I = Inst(DI.Defs[D]);
    if (I.IsInductionUpdate || I.IsReductionUpdate)
      return true;
    if (I.Op == Opcode::Move && I.A != NoValue) {
      std::span<const unsigned> SrcDefs = DI.defsOf(I.A);
      if (SrcDefs.size() == 1) {
        const DefSite &Src = DI.Defs[SrcDefs[0]];
        const Instruction &SrcI = Inst(Src);
        if (Scratch.inLoop(Src.BB) &&
            (SrcI.IsInductionUpdate || SrcI.IsReductionUpdate))
          return true;
      }
    }
    return false;
  };

  auto DominatesAllLatches = [&](BlockId B) {
    for (BlockId Latch : L.Latches)
      if (!FA.DT.dominates(B, Latch))
        return false;
    return true;
  };

  // Scan the loop body for uses whose previous-iteration token is alive.
  // One dependence is reported per (value, use) pair.
  std::vector<uint64_t> TokenAlive(Words), SameAlive(Words);
  for (size_t P = 0; P < NB; ++P) {
    BlockId B = L.Blocks[P];
    std::copy_n(Row(TokenIn, P), Words, TokenAlive.begin());
    std::copy_n(Row(SameIn, P), Words, SameAlive.begin());
    const std::vector<Instruction> &Insts = F.Blocks[B].Insts;
    for (unsigned Idx = 0; Idx < Insts.size(); ++Idx) {
      const Instruction &I = Insts[Idx];
      forEachUse(F, I, [&](ValueId V) {
        if (V >= F.NumValues || Local[V] == LoopScratch::NoSlot ||
            !testBit(TokenAlive.data(), Local[V]))
          return;
        unsigned C = Local[V];
        ScalarCarriedDep Dep;
        Dep.Value = V;
        Dep.Use = {B, Idx, V};
        Dep.Def = DI.Defs[Sources[C].front()];
        Dep.Breakable = true;
        for (unsigned D : Sources[C])
          Dep.Breakable &= BreakableDef(D);
        // Certain: both endpoints execute every iteration, the value has
        // exactly one in-loop definition, and no same-iteration definition
        // can satisfy the use instead.
        Dep.Certain = !testBit(SameAlive.data(), C) &&
                      Sources[C].size() == 1 && InLoopDefs[C] == 1 &&
                      DominatesAllLatches(B) &&
                      DominatesAllLatches(Dep.Def.BB);
        Deps.push_back(Dep);
      });
      if (producesValue(I.Op) && I.Result < F.NumValues &&
          Local[I.Result] != LoopScratch::NoSlot) {
        clearBit(TokenAlive.data(), Local[I.Result]);
        setBit(SameAlive.data(), Local[I.Result]);
      }
    }
  }
  for (ValueId V : Carried)
    Local[V] = LoopScratch::NoSlot;
  return Deps;
}

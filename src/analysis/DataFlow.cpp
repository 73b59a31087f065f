//===- analysis/DataFlow.cpp ----------------------------------------------===//

#include "analysis/DataFlow.h"

#include <algorithm>
#include <cstdint>

using namespace kremlin;

namespace {

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

std::vector<ScalarCarriedDep>
kremlin::findLoopCarriedScalarDeps(const LoopView &View) {
  std::vector<ScalarCarriedDep> Deps;
  const Function &F = View.F;
  const Loop &L = View.L;
  const DefIndex &DI = View.FA.Defs;
  if (F.Blocks.empty() || F.NumValues == 0)
    return Deps;
  std::vector<unsigned> &Local = View.Scratch.slots();

  // The registers the loop defines, numbered once in first-seen order:
  // every set below is a row of bits over this numbering.
  std::vector<ValueId> Regs;
  for (BlockId B : L.Blocks)
    for (unsigned D = DI.BlockBegin[B]; D < DI.BlockBegin[B + 1]; ++D) {
      ValueId V = DI.Defs[D].Value;
      if (Local[V] == LoopScratch::NoSlot) {
        Local[V] = static_cast<unsigned>(Regs.size());
        Regs.push_back(V);
      }
    }
  if (Regs.empty())
    return Deps;

  // One row of Words per loop block (indexed by position in L.Blocks).
  size_t NB = L.Blocks.size();
  unsigned Words = static_cast<unsigned>((Regs.size() + 63) / 64);
  auto Row = [Words](std::vector<uint64_t> &Set, size_t P) {
    return &Set[P * Words];
  };

  // Defined[P]: registers block P defines; InLoopDefs counts every in-loop
  // definition of each register. LoopPreds holds the in-loop edges, back
  // edges excluded.
  std::vector<uint64_t> Defined(NB * Words, 0);
  std::vector<unsigned> InLoopDefs(Regs.size(), 0);
  std::vector<std::vector<unsigned>> LoopPreds(NB);
  for (size_t P = 0; P < NB; ++P) {
    BlockId B = L.Blocks[P];
    for (unsigned D = DI.BlockBegin[B]; D < DI.BlockBegin[B + 1]; ++D) {
      unsigned C = Local[DI.Defs[D].Value];
      setBit(Row(Defined, P), C);
      ++InLoopDefs[C];
    }
    if (!F.Blocks[B].hasTerminator())
      continue;
    for (BlockId S : F.successors(B))
      if (View.inLoop(S) && S != L.Header) // Back edges excluded.
        LoopPreds[View.Scratch.pos(S)].push_back(static_cast<unsigned>(P));
  }

  // Clear[P]: registers along some path from P's exit to the end of a
  // latch that defines none of them. A latch's exit is such an end itself;
  // any other block inherits Clear[S] - Defined[S] from each in-loop
  // successor S. Sweeping from the last block to the first carries facts
  // along every edge to a later block in one sweep.
  std::vector<uint64_t> Clear(NB * Words, 0);
  for (BlockId T : L.Latches)
    std::fill_n(Row(Clear, View.Scratch.pos(T)), Words, ~0ull);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t S = NB; S-- > 0;) {
      const uint64_t *SC = Row(Clear, S), *SD = Row(Defined, S);
      for (unsigned Pred : LoopPreds[S]) {
        uint64_t *PC = Row(Clear, Pred);
        for (unsigned W = 0; W < Words; ++W) {
          uint64_t New = PC[W] | (SC[W] & ~SD[W]);
          Changed |= New != PC[W];
          PC[W] = New;
        }
      }
    }
  }

  // Carried sources: the bindings the back edge hands to the next
  // iteration, i.e. each block's last definition of a register that is
  // clear past the block. Walking a block's definitions backwards meets
  // its last definition of each register first; blocks go in order, so
  // each register's sources stay in block-major order.
  std::vector<std::vector<unsigned>> Sources(Regs.size());
  std::vector<size_t> SeenIn(Regs.size(), NB);
  for (size_t P = 0; P < NB; ++P) {
    BlockId B = L.Blocks[P];
    for (unsigned D = DI.BlockBegin[B + 1]; D-- > DI.BlockBegin[B];) {
      unsigned C = Local[DI.Defs[D].Value];
      if (SeenIn[C] == P)
        continue; // A later definition in this block supersedes it.
      SeenIn[C] = P;
      if (testBit(Row(Clear, P), C))
        Sources[C].push_back(D);
    }
  }

  // Token pass: TokenIn[B] = registers whose previous-iteration binding
  // can still be live at B's entry. Seeded at the header with every
  // register that has a carried source; any definition of V inside the
  // current iteration kills V's token.
  //
  // SameIter pass: registers some current-iteration definition reaches (a
  // may analysis: gen-only, since any same-iteration def of V counts).
  std::vector<uint64_t> TokenIn(NB * Words, 0), SameIn(NB * Words, 0);
  for (unsigned C = 0; C < Regs.size(); ++C)
    if (!Sources[C].empty())
      setBit(Row(TokenIn, View.Scratch.pos(L.Header)), C);
  Changed = true;
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

  // True when every in-loop definition that can feed this value across the
  // back edge is an HCPA-breakable update: the marked op itself, or the
  // canonical `v = Move t` copy whose source op is marked.
  const DefChains Chains(View);
  auto BreakableDef = [&](unsigned D) {
    const Instruction &I = View.inst(DI.Defs[D]);
    return I.IsInductionUpdate || I.IsReductionUpdate ||
           Chains.updateOp(I) != nullptr;
  };

  // Scan the loop body for uses whose previous-iteration token is alive.
  // One dependence is reported per (value, use) pair.
  std::vector<uint64_t> TokenAlive(Words), SameAlive(Words);
  for (size_t P = 0; P < NB; ++P) {
    BlockId B = L.Blocks[P];
    std::copy_n(Row(TokenIn, P), Words, TokenAlive.begin());
    std::copy_n(Row(SameIn, P), Words, SameAlive.begin());
    const InstList &Insts = F.Blocks[B].Insts;
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
                      View.dominatesAllLatches(B) &&
                      View.dominatesAllLatches(Dep.Def.BB);
        Deps.push_back(Dep);
      });
      if (producesValue(I.Op) && I.Result < F.NumValues &&
          Local[I.Result] != LoopScratch::NoSlot) {
        clearBit(TokenAlive.data(), Local[I.Result]);
        setBit(SameAlive.data(), Local[I.Result]);
      }
    }
  }
  for (ValueId V : Regs)
    Local[V] = LoopScratch::NoSlot;
  return Deps;
}

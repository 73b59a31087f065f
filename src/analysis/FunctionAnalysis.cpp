//===- analysis/FunctionAnalysis.cpp --------------------------------------===//

#include "analysis/FunctionAnalysis.h"

#include "analysis/DataFlow.h"

#include <algorithm>
#include <set>

using namespace kremlin;

DefIndex kremlin::buildDefIndex(const Function &F) {
  // NoValue lies above every register, so the range test excludes it.
  auto IsDef = [&F](const Instruction &I) {
    return producesValue(I.Op) && I.Result < F.NumValues;
  };
  DefIndex DI;
  DI.BlockBegin.assign(F.Blocks.size() + 1, 0);
  for (BlockId BB = 0; BB < F.Blocks.size(); ++BB)
    DI.BlockBegin[BB + 1] =
        DI.BlockBegin[BB] +
        static_cast<unsigned>(std::count_if(F.Blocks[BB].Insts.begin(),
                                            F.Blocks[BB].Insts.end(), IsDef));
  DI.Defs.reserve(DI.BlockBegin.back());
  for (BlockId BB = 0; BB < F.Blocks.size(); ++BB) {
    const InstList &Insts = F.Blocks[BB].Insts;
    for (unsigned Idx = 0; Idx < Insts.size(); ++Idx)
      if (IsDef(Insts[Idx]))
        DI.Defs.push_back({BB, Idx, Insts[Idx].Result});
  }

  // Counting sort by register; block-major order within each register.
  DI.ValueBegin.assign(F.NumValues + 1, 0);
  for (const DefSite &D : DI.Defs)
    ++DI.ValueBegin[D.Value + 1];
  for (size_t V = 0; V < F.NumValues; ++V)
    DI.ValueBegin[V + 1] += DI.ValueBegin[V];
  DI.ByValue.resize(DI.Defs.size());
  std::vector<unsigned> Fill(DI.ValueBegin.begin(), DI.ValueBegin.end() - 1);
  for (unsigned D = 0; D < DI.Defs.size(); ++D)
    DI.ByValue[Fill[DI.Defs[D].Value]++] = D;
  return DI;
}

FunctionAnalysis kremlin::buildFunctionAnalysis(const Function &F) {
  FunctionAnalysis FA;
  FA.DT = computeDominators(F);
  FA.LI = computeLoops(F, FA.DT);
  FA.Defs = buildDefIndex(F);
  return FA;
}

const DefSite *LoopView::singleDef(ValueId V) const {
  const DefSite *Found = nullptr;
  for (unsigned D : FA.Defs.defsOf(V)) {
    const DefSite &Def = FA.Defs.Defs[D];
    if (!inLoop(Def.BB))
      continue;
    if (Found)
      return nullptr;
    Found = &Def;
  }
  return Found;
}

bool LoopView::defines(ValueId V) const {
  for (unsigned D : FA.Defs.defsOf(V))
    if (inLoop(FA.Defs.Defs[D].BB))
      return true;
  return false;
}

bool LoopView::dominatesAllLatches(BlockId B) const {
  for (BlockId Latch : L.Latches)
    if (!FA.DT.dominates(B, Latch))
      return false;
  return true;
}

bool LoopView::dependsOn(ValueId V, ValueId Target) const {
  if (V == Target)
    return true;
  std::set<ValueId> Visited = {V};
  std::vector<ValueId> Work = {V};
  while (!Work.empty()) {
    if (Visited.size() > 512)
      return true; // Give up conservatively on huge chains.
    ValueId Cur = Work.back();
    Work.pop_back();
    for (unsigned D : FA.Defs.defsOf(Cur)) {
      const DefSite &Def = FA.Defs.Defs[D];
      if (!inLoop(Def.BB))
        continue;
      bool Reads = false;
      forEachUse(F, inst(Def), [&](ValueId Next) {
        if (Next == Target)
          Reads = true;
        else if (Visited.insert(Next).second)
          Work.push_back(Next);
      });
      if (Reads)
        return true;
    }
  }
  return false;
}

const Instruction *DefChains::lookup(ValueId V,
                                     const LoopView *Scope) const {
  if (Scope && Scope->defines(V)) {
    const DefSite *D = Scope->singleDef(V);
    return D ? &Scope->inst(*D) : nullptr;
  }
  std::span<const unsigned> Ds = Defs.defsOf(V);
  if (Ds.size() != 1)
    return nullptr;
  const DefSite &D = Defs.Defs[Ds[0]];
  return &F.Blocks[D.BB].Insts[D.Idx];
}

ArrayRoot DefChains::arrayOf(ValueId Addr,
                             std::vector<ValueId> *Offsets) const {
  ValueId V = Addr;
  for (unsigned Hops = 0; Hops <= MaxChainHops && V != NoValue; ++Hops) {
    const Instruction *I = def(V);
    if (!I) {
      if (V < F.NumParams && Defs.defsOf(V).empty())
        return {ArrayBase::Param, V};
      break;
    }
    switch (I->Op) {
    case Opcode::GlobalAddr:
      return {ArrayBase::Global, I->Aux};
    case Opcode::FrameAddr:
      return {ArrayBase::Frame, I->Aux};
    case Opcode::PtrAdd:
      if (Offsets)
        Offsets->push_back(I->B);
      V = I->A;
      break;
    case Opcode::Move:
      V = I->A;
      break;
    default:
      return {};
    }
  }
  return {};
}

bool DefChains::sameValue(ValueId A, ValueId B, bool FollowCopies,
                          unsigned Hops) const {
  if (A == B)
    return true;
  if (Hops > MaxChainHops || A == NoValue || B == NoValue)
    return false;
  const Instruction *IA = functionDef(A);
  const Instruction *IB = functionDef(B);
  // Distinct registers without a chain match only as themselves, and so do
  // copies the caller does not follow.
  if (!IA || !IB)
    return false;
  if (IA->Op == Opcode::Move || IB->Op == Opcode::Move) {
    if (!FollowCopies)
      return false;
    if (IA->Op == Opcode::Move)
      return sameValue(IA->A, B, FollowCopies, Hops + 1);
    return sameValue(A, IB->A, FollowCopies, Hops + 1);
  }
  if (IA->Op != IB->Op)
    return false;
  switch (IA->Op) {
  case Opcode::ConstInt:
    return IA->IntImm == IB->IntImm;
  case Opcode::ConstFloat:
    return IA->FloatImm == IB->FloatImm;
  case Opcode::GlobalAddr:
  case Opcode::FrameAddr:
    return IA->Aux == IB->Aux;
  default:
    if (isBinaryOp(IA->Op))
      return sameValue(IA->A, IB->A, FollowCopies, Hops + 1) &&
             sameValue(IA->B, IB->B, FollowCopies, Hops + 1);
    if (isUnaryOp(IA->Op) || IA->Op == Opcode::Load)
      return sameValue(IA->A, IB->A, FollowCopies, Hops + 1);
    return false;
  }
}

const Instruction *DefChains::updateOp(const Instruction &Copy) const {
  if (Copy.Op != Opcode::Move || (Loop && !Loop->defines(Copy.A)))
    return nullptr;
  const Instruction *Op = functionDef(Copy.A);
  if (!Op || (!Op->IsInductionUpdate && !Op->IsReductionUpdate))
    return nullptr;
  return Op;
}

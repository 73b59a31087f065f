//===- analysis/FunctionAnalysis.cpp --------------------------------------===//

#include "analysis/FunctionAnalysis.h"

#include <algorithm>

using namespace kremlin;

namespace {

DefIndex buildDefIndex(const Function &F) {
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
    const std::vector<Instruction> &Insts = F.Blocks[BB].Insts;
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

} // namespace

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

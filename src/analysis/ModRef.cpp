//===- analysis/ModRef.cpp ------------------------------------------------===//

#include "analysis/ModRef.h"

#include <algorithm>

using namespace kremlin;

namespace {

void addSorted(std::vector<GlobalId> &Set, GlobalId G) {
  auto It = std::lower_bound(Set.begin(), Set.end(), G);
  if (It == Set.end() || *It != G)
    Set.insert(It, G);
}

bool summariesEqual(const ModRefSummary &A, const ModRefSummary &B) {
  return A.Opaque == B.Opaque && A.GlobalReads == B.GlobalReads &&
         A.GlobalWrites == B.GlobalWrites && A.ParamReads == B.ParamReads &&
         A.ParamWrites == B.ParamWrites;
}

/// Records one read or write through \p Root into \p S. Frame roots are
/// private to the activation and do not escape into the summary.
void recordEffect(ModRefSummary &S, ArrayRoot Root, bool IsWrite) {
  switch (Root.Kind) {
  case ArrayBase::Global:
    addSorted(IsWrite ? S.GlobalWrites : S.GlobalReads, Root.Id);
    return;
  case ArrayBase::Frame:
    return;
  case ArrayBase::Param:
    if (Root.Id < (IsWrite ? S.ParamWrites : S.ParamReads).size())
      (IsWrite ? S.ParamWrites : S.ParamReads)[Root.Id] = 1;
    return;
  case ArrayBase::Unknown:
    S.Opaque = true;
    return;
  }
}

/// Recomputes a function's summary from its \p Body plus the current
/// summaries of its callees. Monotone in the callee summaries, so iterating
/// this to a fixpoint over an SCC converges.
ModRefSummary computeOne(const ModRefBody &Body,
                         const std::vector<ModRefSummary> &Current) {
  ModRefSummary S = Body.Own;
  for (const ModRefBody::Call &C : Body.Calls) {
    if (C.Callee >= Current.size()) {
      S.Opaque = true;
      continue;
    }
    const ModRefSummary &CS = Current[C.Callee];
    if (CS.Opaque)
      S.Opaque = true;
    for (GlobalId G : CS.GlobalReads)
      addSorted(S.GlobalReads, G);
    for (GlobalId G : CS.GlobalWrites)
      addSorted(S.GlobalWrites, G);
    // Param effects of the callee land on whatever array the caller
    // passed in that position.
    unsigned NumK = static_cast<unsigned>(
        std::max(CS.ParamReads.size(), CS.ParamWrites.size()));
    for (unsigned K = 0; K < NumK; ++K) {
      bool Reads = CS.readsParam(K);
      bool Writes = CS.writesParam(K);
      if (!Reads && !Writes)
        continue;
      ArrayRoot ArgRoot;
      if (K < C.Args.size())
        ArgRoot = C.Args[K];
      if (Reads)
        recordEffect(S, ArgRoot, /*IsWrite=*/false);
      if (Writes)
        recordEffect(S, ArgRoot, /*IsWrite=*/true);
    }
  }
  return S;
}

} // namespace

ModRefBody kremlin::modRefBody(const Function &F, const DefIndex &D) {
  ModRefBody B;
  B.Own.ParamReads.assign(F.NumParams, 0);
  B.Own.ParamWrites.assign(F.NumParams, 0);
  DefChains Chains(F, D);
  for (const BasicBlock &BB : F.Blocks)
    for (const Instruction &I : BB.Insts) {
      if (I.Op == Opcode::Load) {
        recordEffect(B.Own, Chains.arrayOf(I.A), /*IsWrite=*/false);
        continue;
      }
      if (I.Op == Opcode::Store) {
        recordEffect(B.Own, Chains.arrayOf(I.A), /*IsWrite=*/true);
        continue;
      }
      if (I.Op != Opcode::Call)
        continue;
      ModRefBody::Call &C = B.Calls.emplace_back();
      C.Callee = I.Aux;
      for (ValueId A : F.callArgs(I))
        C.Args.push_back(Chains.arrayOf(A));
    }
  return B;
}

ModRefResult kremlin::computeModRef(const Module &M, const CallGraph &CG,
                                    const std::vector<ModRefBody> &Bodies) {
  ModRefResult Result;
  Result.Summaries.resize(M.Functions.size());

  // Bottom-up over the SCC condensation; multi-member (or self-recursive)
  // components iterate to a fixpoint of the finite effect lattice.
  for (const std::vector<FuncId> &Component : CG.sccs()) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (FuncId F : Component) {
        ModRefSummary S = computeOne(Bodies[F], Result.Summaries);
        S.Recursive = CG.isRecursive(F);
        if (!summariesEqual(S, Result.Summaries[F])) {
          Result.Summaries[F] = std::move(S);
          Changed = true;
        } else {
          Result.Summaries[F].Recursive = S.Recursive;
        }
      }
      if (Component.size() == 1 && !CG.isRecursive(Component[0]))
        break; // No cycle: one pass is already the fixpoint.
    }
  }
  for (const ModRefSummary &S : Result.Summaries)
    if (S.Opaque)
      ++Result.NumOpaque;
  return Result;
}

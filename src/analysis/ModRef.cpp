//===- analysis/ModRef.cpp ------------------------------------------------===//

#include "analysis/ModRef.h"

#include <algorithm>

using namespace kremlin;

namespace {

constexpr unsigned MaxChainDepth = 32;

/// Where an address chain bottoms out inside one function.
struct AddrRoot {
  enum class Kind : unsigned char { Global, Frame, Param, Unknown } K =
      Kind::Unknown;
  uint32_t Id = 0;
};

/// Resolves \p V to its root through single-definition chains. Parameters
/// have no defining instruction; a register with exactly one def has an
/// unambiguous chain regardless of control flow.
AddrRoot resolveRoot(const Function &F, const DefIndex &D, ValueId V,
                     unsigned Depth = 0) {
  AddrRoot R;
  if (Depth > MaxChainDepth || V == NoValue || V >= F.NumValues)
    return R;
  std::span<const unsigned> Defs = D.defsOf(V);
  if (Defs.empty()) {
    if (V < F.NumParams) {
      R.K = AddrRoot::Kind::Param;
      R.Id = V;
    }
    return R;
  }
  if (Defs.size() != 1)
    return R;
  const DefSite &Site = D.Defs[Defs[0]];
  const Instruction &I = F.Blocks[Site.BB].Insts[Site.Idx];
  switch (I.Op) {
  case Opcode::GlobalAddr:
    R.K = AddrRoot::Kind::Global;
    R.Id = I.Aux;
    return R;
  case Opcode::FrameAddr:
    R.K = AddrRoot::Kind::Frame;
    R.Id = I.Aux;
    return R;
  case Opcode::Move:
  case Opcode::PtrAdd:
    // PtrAdd offsets never change the base array (word-granular model).
    return resolveRoot(F, D, I.A, Depth + 1);
  default:
    return R;
  }
}

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
void recordEffect(ModRefSummary &S, const AddrRoot &Root, bool IsWrite) {
  switch (Root.K) {
  case AddrRoot::Kind::Global:
    addSorted(IsWrite ? S.GlobalWrites : S.GlobalReads, Root.Id);
    return;
  case AddrRoot::Kind::Frame:
    return;
  case AddrRoot::Kind::Param:
    if (Root.Id < (IsWrite ? S.ParamWrites : S.ParamReads).size())
      (IsWrite ? S.ParamWrites : S.ParamReads)[Root.Id] = 1;
    return;
  case AddrRoot::Kind::Unknown:
    S.Opaque = true;
    return;
  }
}

/// Recomputes \p F's summary from its body plus the current summaries of
/// its callees. Monotone in the callee summaries, so iterating this to a
/// fixpoint over an SCC converges.
ModRefSummary computeOne(const Function &F, const DefIndex &D,
                         const std::vector<ModRefSummary> &Current) {
  ModRefSummary S;
  S.ParamReads.assign(F.NumParams, 0);
  S.ParamWrites.assign(F.NumParams, 0);

  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts) {
      if (I.Op == Opcode::Load) {
        recordEffect(S, resolveRoot(F, D, I.A), /*IsWrite=*/false);
        continue;
      }
      if (I.Op == Opcode::Store) {
        recordEffect(S, resolveRoot(F, D, I.A), /*IsWrite=*/true);
        continue;
      }
      if (I.Op != Opcode::Call)
        continue;
      if (I.Aux >= Current.size()) {
        S.Opaque = true;
        continue;
      }
      const ModRefSummary &CS = Current[I.Aux];
      if (CS.Opaque)
        S.Opaque = true;
      for (GlobalId G : CS.GlobalReads)
        addSorted(S.GlobalReads, G);
      for (GlobalId G : CS.GlobalWrites)
        addSorted(S.GlobalWrites, G);
      // Param effects of the callee land on whatever array the caller
      // passed in that position.
      std::span<const ValueId> Args = F.callArgs(I);
      unsigned NumK = static_cast<unsigned>(
          std::max(CS.ParamReads.size(), CS.ParamWrites.size()));
      for (unsigned K = 0; K < NumK; ++K) {
        bool Reads = CS.readsParam(K);
        bool Writes = CS.writesParam(K);
        if (!Reads && !Writes)
          continue;
        AddrRoot ArgRoot;
        if (K < Args.size())
          ArgRoot = resolveRoot(F, D, Args[K]);
        if (Reads)
          recordEffect(S, ArgRoot, /*IsWrite=*/false);
        if (Writes)
          recordEffect(S, ArgRoot, /*IsWrite=*/true);
      }
    }
  return S;
}

} // namespace

ModRefResult kremlin::computeModRef(const Module &M, const CallGraph &CG,
                                    const std::vector<FunctionAnalysis> &FA) {
  ModRefResult Result;
  Result.Summaries.resize(M.Functions.size());

  // Bottom-up over the SCC condensation; multi-member (or self-recursive)
  // components iterate to a fixpoint of the finite effect lattice.
  for (const std::vector<FuncId> &Component : CG.sccs()) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (FuncId F : Component) {
        ModRefSummary S =
            computeOne(M.Functions[F], FA[F].Defs, Result.Summaries);
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

//===- analysis/Loops.cpp -------------------------------------------------===//

#include "analysis/Loops.h"

#include <algorithm>

using namespace kremlin;

bool Loop::contains(BlockId B) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), B);
}

LoopInfo kremlin::computeLoops(const Function &F, const DomTree &DT) {
  LoopInfo LI;
  size_t N = F.Blocks.size();

  std::vector<std::vector<BlockId>> Preds(N);
  // Back edges (header, latch) in latch order; a stable sort by header
  // then groups each header's latches in ascending order.
  std::vector<std::pair<BlockId, BlockId>> BackEdges;
  for (BlockId BB = 0; BB < N; ++BB) {
    if (!F.Blocks[BB].hasTerminator())
      continue; // Tolerate unterminated blocks (pre-verifier IR).
    for (BlockId S : F.successors(BB)) {
      if (S >= N)
        continue;
      Preds[S].push_back(BB);
      if (DT.dominates(S, BB))
        BackEdges.push_back({S, BB});
    }
  }
  std::stable_sort(
      BackEdges.begin(), BackEdges.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; });

  // Body: reverse reachability from the latches, stopping at the header.
  // Stamp[B] == loop index + 1 marks B as collected for the current loop.
  std::vector<size_t> Stamp(N, 0);
  std::vector<int> LoopOfHeader(N, -1);
  std::vector<BlockId> Work;
  for (size_t E = 0; E < BackEdges.size();) {
    Loop L;
    L.Header = BackEdges[E].first;
    for (; E < BackEdges.size() && BackEdges[E].first == L.Header; ++E)
      L.Latches.push_back(BackEdges[E].second);
    size_t Mark = LI.Loops.size() + 1;
    Stamp[L.Header] = Mark;
    L.Blocks.push_back(L.Header);
    for (BlockId Latch : L.Latches)
      if (Stamp[Latch] != Mark) {
        Stamp[Latch] = Mark;
        L.Blocks.push_back(Latch);
        Work.push_back(Latch);
      }
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (BlockId P : Preds[B])
        if (DT.isReachable(P) && Stamp[P] != Mark) {
          Stamp[P] = Mark;
          L.Blocks.push_back(P);
          Work.push_back(P);
        }
    }
    std::sort(L.Blocks.begin(), L.Blocks.end());
    LoopOfHeader[L.Header] = static_cast<int>(LI.Loops.size());
    LI.Loops.push_back(std::move(L));
  }

  // Nesting: loop A is inside loop B when B contains A's header and A != B.
  // The smallest such container is the parent, the lowest index among
  // equals. Visiting each body once finds every container.
  std::vector<size_t> ParentSize(LI.Loops.size(), SIZE_MAX);
  for (size_t J = 0; J < LI.Loops.size(); ++J)
    for (BlockId B : LI.Loops[J].Blocks) {
      int I = LoopOfHeader[B];
      if (I < 0 || static_cast<size_t>(I) == J ||
          LI.Loops[J].Blocks.size() >= ParentSize[I])
        continue;
      ParentSize[I] = LI.Loops[J].Blocks.size();
      LI.Loops[I].Parent = static_cast<int>(J);
    }
  // Depths via parent chains.
  for (Loop &L : LI.Loops) {
    unsigned Depth = 1;
    int P = L.Parent;
    while (P >= 0) {
      ++Depth;
      P = LI.Loops[static_cast<size_t>(P)].Parent;
    }
    L.Depth = Depth;
  }
  return LI;
}

//===- analysis/Dominators.cpp --------------------------------------------===//

#include "analysis/Dominators.h"

#include <algorithm>
#include <cassert>

using namespace kremlin;

namespace {

/// Fills \p DT's DFS entry/exit numbers by an iterative walk of the tree
/// from its root; unreachable nodes keep UINT32_MAX.
void numberTree(DomTree &DT) {
  size_t N = DT.IDom.size();
  DT.DfsIn.assign(N, UINT32_MAX);
  DT.DfsOut.assign(N, UINT32_MAX);
  if (N == 0)
    return;
  // Children in CSR form: Kids[Begin[P] .. Begin[P + 1]).
  std::vector<uint32_t> Begin(N + 1, 0), Kids;
  for (BlockId B = 0; B < N; ++B)
    if (B != DT.Root && DT.IDom[B] != NoBlock)
      ++Begin[DT.IDom[B] + 1];
  for (size_t P = 0; P < N; ++P)
    Begin[P + 1] += Begin[P];
  Kids.resize(Begin[N]);
  std::vector<uint32_t> Fill(Begin.begin(), Begin.end() - 1);
  for (BlockId B = 0; B < N; ++B)
    if (B != DT.Root && DT.IDom[B] != NoBlock)
      Kids[Fill[DT.IDom[B]]++] = B;

  uint32_t Clock = 0;
  std::vector<std::pair<BlockId, uint32_t>> Stack = {{DT.Root, Begin[DT.Root]}};
  DT.DfsIn[DT.Root] = Clock++;
  while (!Stack.empty()) {
    auto &[Node, Next] = Stack.back();
    if (Next < Begin[Node + 1]) {
      BlockId Kid = Kids[Next++];
      DT.DfsIn[Kid] = Clock++;
      Stack.push_back({Kid, Begin[Kid]});
      continue;
    }
    DT.DfsOut[Node] = Clock++;
    Stack.pop_back();
  }
}

/// Generic CHK iterative dominator computation over an explicit graph.
/// \p Preds are the predecessor lists; \p Order is a reverse postorder of
/// reachable nodes starting with the root.
DomTree computeOnGraph(size_t NumNodes, BlockId Root,
                       const std::vector<std::vector<BlockId>> &Preds,
                       std::vector<BlockId> Order) {
  DomTree DT;
  DT.Root = Root;
  DT.IDom.assign(NumNodes, NoBlock);
  DT.IDom[Root] = Root;

  // Position of each node in the RPO, for the intersect walk.
  std::vector<uint32_t> RpoPos(NumNodes, UINT32_MAX);
  for (uint32_t I = 0; I < Order.size(); ++I)
    RpoPos[Order[I]] = I;

  auto Intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (RpoPos[A] > RpoPos[B])
        A = DT.IDom[A];
      while (RpoPos[B] > RpoPos[A])
        B = DT.IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId Node : Order) {
      if (Node == Root)
        continue;
      BlockId NewIDom = NoBlock;
      for (BlockId P : Preds[Node]) {
        if (DT.IDom[P] == NoBlock)
          continue; // Unprocessed / unreachable predecessor.
        NewIDom = NewIDom == NoBlock ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != NoBlock && DT.IDom[Node] != NewIDom) {
        DT.IDom[Node] = NewIDom;
        Changed = true;
      }
    }
  }
  numberTree(DT);
  DT.Rpo = std::move(Order);
  return DT;
}

/// Builds a reverse postorder of the graph reachable from \p Root.
std::vector<BlockId>
reversePostorder(size_t NumNodes, BlockId Root,
                 const std::vector<std::vector<BlockId>> &Succs) {
  std::vector<BlockId> Postorder;
  if (NumNodes == 0 || Root >= NumNodes)
    return Postorder;
  std::vector<char> State(NumNodes, 0); // 0 unvisited, 1 on stack, 2 done.
  // Iterative DFS.
  std::vector<std::pair<BlockId, size_t>> Stack;
  Stack.push_back({Root, 0});
  State[Root] = 1;
  while (!Stack.empty()) {
    auto &[Node, NextSucc] = Stack.back();
    if (NextSucc < Succs[Node].size()) {
      BlockId S = Succs[Node][NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    State[Node] = 2;
    Postorder.push_back(Node);
    Stack.pop_back();
  }
  std::reverse(Postorder.begin(), Postorder.end());
  return Postorder;
}

} // namespace

DomTree kremlin::computeDominators(const Function &F) {
  size_t N = F.Blocks.size();
  if (N == 0)
    return DomTree(); // Degenerate: no blocks, empty tree.
  std::vector<std::vector<BlockId>> Succs(N), Preds(N);
  for (BlockId BB = 0; BB < N; ++BB) {
    if (!F.Blocks[BB].hasTerminator())
      continue; // Tolerate unterminated blocks (pre-verifier IR).
    for (BlockId S : F.successors(BB)) {
      if (S >= N)
        continue;
      Succs[BB].push_back(S);
      Preds[S].push_back(BB);
    }
  }
  std::vector<BlockId> Order = reversePostorder(N, /*Root=*/0, Succs);
  return computeOnGraph(N, /*Root=*/0, Preds, Order);
}

DomTree kremlin::computePostDominators(const Function &F) {
  size_t N = F.Blocks.size();
  BlockId VirtualExit = static_cast<BlockId>(N);
  size_t Total = N + 1;

  // Reversed CFG: successors of X are its CFG predecessors; Ret blocks get
  // an edge from the virtual exit.
  std::vector<std::vector<BlockId>> RevSuccs(Total), RevPreds(Total);
  auto AddEdge = [&](BlockId From, BlockId To) {
    RevSuccs[From].push_back(To);
    RevPreds[To].push_back(From);
  };
  for (BlockId BB = 0; BB < N; ++BB) {
    if (!F.Blocks[BB].hasTerminator())
      continue; // Tolerate unterminated blocks (pre-verifier IR).
    const Instruction &Term = F.Blocks[BB].terminator();
    if (Term.Op == Opcode::Ret)
      AddEdge(VirtualExit, BB);
    for (BlockId S : F.successors(BB))
      if (S < N)
        AddEdge(S, BB);
  }

  std::vector<BlockId> Order = reversePostorder(Total, VirtualExit, RevSuccs);
  return computeOnGraph(Total, VirtualExit, RevPreds, Order);
}

BlockId kremlin::immediatePostDominator(const DomTree &PDT, const Function &F,
                                        BlockId B) {
  BlockId VirtualExit = static_cast<BlockId>(F.Blocks.size());
  BlockId IPD = PDT.idom(B);
  if (IPD == NoBlock || IPD == VirtualExit)
    return NoBlock;
  return IPD;
}

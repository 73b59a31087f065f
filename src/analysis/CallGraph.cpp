//===- analysis/CallGraph.cpp ---------------------------------------------===//

#include "analysis/CallGraph.h"

#include <algorithm>

using namespace kremlin;

namespace {

/// Iterative Tarjan state per function.
struct TarjanNode {
  unsigned Index = 0;
  unsigned LowLink = 0;
  bool Visited = false;
  bool OnStack = false;
};

} // namespace

CallGraph::CallGraph(const Module &M) {
  size_t N = M.Functions.size();
  Callees.resize(N);
  Recursive.assign(N, 0);

  std::vector<char> SelfEdge(N, 0);
  for (const Function &F : M.Functions) {
    for (BlockId B = 0; B < F.Blocks.size(); ++B)
      for (unsigned Idx = 0; Idx < F.Blocks[B].Insts.size(); ++Idx) {
        const Instruction &I = F.Blocks[B].Insts[Idx];
        if (I.Op != Opcode::Call || I.Aux >= N)
          continue;
        Sites.push_back({F.Id, I.Aux, B, Idx, I.Line});
        Callees[F.Id].push_back(I.Aux);
        if (I.Aux == F.Id)
          SelfEdge[F.Id] = 1;
      }
    std::vector<FuncId> &C = Callees[F.Id];
    std::sort(C.begin(), C.end());
    C.erase(std::unique(C.begin(), C.end()), C.end());
  }

  // Iterative Tarjan: components are completed only after every component
  // they call into, so the emission order is bottom-up.
  std::vector<TarjanNode> Nodes(N);
  std::vector<FuncId> Stack;
  unsigned NextIndex = 0;
  struct Frame {
    FuncId F;
    size_t NextChild;
  };
  for (FuncId Root = 0; Root < N; ++Root) {
    if (Nodes[Root].Visited)
      continue;
    std::vector<Frame> Work{{Root, 0}};
    while (!Work.empty()) {
      Frame &Top = Work.back();
      TarjanNode &Node = Nodes[Top.F];
      if (!Node.Visited) {
        Node.Visited = true;
        Node.Index = Node.LowLink = NextIndex++;
        Node.OnStack = true;
        Stack.push_back(Top.F);
      }
      bool Descended = false;
      while (Top.NextChild < Callees[Top.F].size()) {
        FuncId Child = Callees[Top.F][Top.NextChild++];
        if (!Nodes[Child].Visited) {
          Work.push_back({Child, 0});
          Descended = true;
          break;
        }
        if (Nodes[Child].OnStack)
          Node.LowLink = std::min(Node.LowLink, Nodes[Child].Index);
      }
      if (Descended)
        continue;
      if (Node.LowLink == Node.Index) {
        std::vector<FuncId> Component;
        FuncId Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          Nodes[Member].OnStack = false;
          Component.push_back(Member);
        } while (Member != Top.F);
        std::sort(Component.begin(), Component.end());
        if (Component.size() > 1)
          for (FuncId FMem : Component)
            Recursive[FMem] = 1;
        Sccs.push_back(std::move(Component));
      }
      Work.pop_back();
      if (!Work.empty()) {
        TarjanNode &Parent = Nodes[Work.back().F];
        Parent.LowLink = std::min(Parent.LowLink, Node.LowLink);
      }
    }
  }
  for (FuncId F = 0; F < N; ++F)
    if (SelfEdge[F])
      Recursive[F] = 1;
}

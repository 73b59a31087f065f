//===- analysis/CallGraph.h - Module call graph + SCCs ----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-module call graph over the MiniC IR. Because MiniC has no function
/// pointers, every Call names its callee directly (Instruction::Aux), so the
/// graph is exact. Tarjan's algorithm groups functions into strongly
/// connected components; components are emitted callees-first, which is
/// exactly the bottom-up order the mod/ref summary fixpoint wants.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_CALLGRAPH_H
#define KREMLIN_ANALYSIS_CALLGRAPH_H

#include "ir/Module.h"

#include <vector>

namespace kremlin {

/// One call instruction, located precisely enough to revisit it.
struct CallSite {
  FuncId Caller = NoFunc;
  FuncId Callee = NoFunc;
  BlockId BB = NoBlock;
  unsigned Idx = 0;
  unsigned Line = 0;
};

/// Exact call graph of a module with Tarjan SCC decomposition.
class CallGraph {
public:
  explicit CallGraph(const Module &M);

  /// Distinct callees of \p F, sorted ascending.
  const std::vector<FuncId> &callees(FuncId F) const { return Callees[F]; }

  /// Every call instruction in the module, in (function, block, index) order.
  const std::vector<CallSite> &sites() const { return Sites; }

  /// Components in bottom-up (callees-first) order: every callee of a
  /// component's member outside it sits in an earlier component. Each is a
  /// sorted list of members.
  const std::vector<std::vector<FuncId>> &sccs() const { return Sccs; }

  /// True when \p F can (transitively) call itself: it sits in a
  /// multi-function component or has a direct self edge.
  bool isRecursive(FuncId F) const { return Recursive[F]; }

  size_t numFunctions() const { return Callees.size(); }

private:
  std::vector<std::vector<FuncId>> Callees;
  std::vector<CallSite> Sites;
  std::vector<std::vector<FuncId>> Sccs;
  std::vector<char> Recursive;
};

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_CALLGRAPH_H

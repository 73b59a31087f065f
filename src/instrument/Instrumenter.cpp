//===- instrument/Instrumenter.cpp ----------------------------------------===//

#include "instrument/Instrumenter.h"

#include "analysis/Dominators.h"
#include "analysis/Induction.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

using namespace kremlin;

namespace {

/// What one function's passes report; merged into the InstrumentResult in
/// FuncId order.
struct FunctionReport {
  unsigned NumInductionUpdates = 0;
  unsigned NumReductionUpdates = 0;
  unsigned NumMemoryReductions = 0;
  unsigned NumCondBranches = 0;
  std::vector<std::string> Warnings;
  /// Loop regions holding a reduction update (HasReduction).
  std::vector<RegionId> ReductionLoops;
};

/// Pass 1: compute control-dependence merge blocks for every CondBr of
/// \p F, validating any value the structured frontend filled in. A
/// branch's merge block is its immediate post-dominator: the runtime pushes
/// a control dependence when the branch executes and pops it there.
void runControlDependencePass(Function &F, FunctionReport &Report) {
  if (F.Blocks.empty())
    return;
  DomTree PDT = computePostDominators(F);
  for (BlockId BB = 0; BB < F.Blocks.size(); ++BB) {
    if (!F.Blocks[BB].hasTerminator())
      continue;
    Instruction &Term = F.Blocks[BB].Insts.back();
    if (Term.Op != Opcode::CondBr)
      continue;
    ++Report.NumCondBranches;
    BlockId Computed = immediatePostDominator(PDT, F, BB);
    if (Term.MergeBlock == NoBlock) {
      Term.MergeBlock = Computed;
    } else if (Term.MergeBlock != Computed && Computed != NoBlock) {
      Report.Warnings.push_back(formatString(
          "@%s bb%u: frontend merge block bb%u differs from post-dominator "
          "bb%u; using the analysis result",
          F.Name.c_str(), BB, Term.MergeBlock, Computed));
      Term.MergeBlock = Computed;
    }
  }
}

/// Pass 2: mark induction/reduction updates of \p F and find the
/// innermost enclosing Loop region of each reduction, so the planner can
/// charge reduction overhead. Reads \p M's region table, never writes it.
void runInductionMarkingPass(const Module &M, Function &F,
                             FunctionReport &Report) {
  if (F.Blocks.empty())
    return;
  InductionMarkResult IMR =
      markInductionAndReductions(F, buildFunctionAnalysis(F));
  Report.NumInductionUpdates = IMR.NumInductionUpdates;
  Report.NumReductionUpdates = IMR.NumReductionUpdates;
  Report.NumMemoryReductions = IMR.NumMemoryReductions;

  for (const BasicBlock &BB : F.Blocks) {
    for (const Instruction &I : BB.Insts) {
      if (!I.IsReductionUpdate)
        continue;
      RegionId R = M.enclosingLoopRegion(I.EnclosingRegion);
      if (R != NoRegion)
        Report.ReductionLoops.push_back(R);
    }
  }
}

} // namespace

InstrumentResult kremlin::instrumentModule(Module &M,
                                           const InstrumentOptions &Opts) {
  InstrumentResult Result;

  // Each pass mutates the whole module, then (under --verify-ir) the
  // verifier re-checks it so a corrupting pass is caught at the pass
  // boundary instead of as a mystery crash in the interpreter.
  auto Verify = [&](const char *Pass) {
    if (!Opts.VerifyAfterEachPass)
      return true;
    std::vector<std::string> Problems = verifyModule(M);
    if (Problems.empty())
      return true;
    Result.Err = Status::error(
        ErrorCode::Internal,
        formatString("IR verification failed after pass '%s': %s", Pass,
                     Problems.front().c_str()));
    return false;
  };

  // Both passes run per function on every available CPU: a task mutates
  // only its own function and report.
  std::vector<FunctionReport> Reports(M.Functions.size());
  parallelFor(M.Functions.size(), [&](size_t I) {
    runControlDependencePass(M.Functions[I], Reports[I]);
  });
  for (FunctionReport &Report : Reports) {
    Result.NumCondBranches += Report.NumCondBranches;
    for (std::string &W : Report.Warnings)
      Result.Warnings.push_back(std::move(W));
  }
  if (!Verify("control-dependence"))
    return Result;

  parallelFor(M.Functions.size(), [&](size_t I) {
    runInductionMarkingPass(M, M.Functions[I], Reports[I]);
  });
  for (const FunctionReport &Report : Reports) {
    Result.NumInductionUpdates += Report.NumInductionUpdates;
    Result.NumReductionUpdates += Report.NumReductionUpdates;
    Result.NumMemoryReductions += Report.NumMemoryReductions;
    for (RegionId R : Report.ReductionLoops)
      M.Regions[R].HasReduction = true;
  }
  if (!Verify("induction-marking"))
    return Result;

  return Result;
}

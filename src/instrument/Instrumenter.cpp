//===- instrument/Instrumenter.cpp ----------------------------------------===//

#include "instrument/Instrumenter.h"

#include "analysis/ControlDependence.h"
#include "analysis/Induction.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"

using namespace kremlin;

namespace {

/// Pass 1: compute control-dependence merge blocks for every CondBr,
/// validating any value the structured frontend filled in.
void runControlDependencePass(Module &M, InstrumentResult &Result) {
  for (Function &F : M.Functions) {
    if (F.Blocks.empty())
      continue;
    ControlDependenceInfo CDI = computeControlDependence(F);
    for (BlockId BB = 0; BB < F.Blocks.size(); ++BB) {
      if (!F.Blocks[BB].hasTerminator())
        continue;
      Instruction &Term = F.Blocks[BB].Insts.back();
      if (Term.Op != Opcode::CondBr)
        continue;
      ++Result.NumCondBranches;
      BlockId Computed = CDI.MergeBlock[BB];
      if (Term.MergeBlock == NoBlock) {
        Term.MergeBlock = Computed;
      } else if (Term.MergeBlock != Computed && Computed != NoBlock) {
        Result.Warnings.push_back(formatString(
            "@%s bb%u: frontend merge block bb%u differs from post-dominator "
            "bb%u; using the analysis result",
            F.Name.c_str(), BB, Term.MergeBlock, Computed));
        Term.MergeBlock = Computed;
      }
    }
  }
}

/// Pass 2: mark induction/reduction updates and attribute reductions to
/// their innermost enclosing Loop region so the planner can charge
/// reduction overhead.
void runInductionMarkingPass(Module &M, InstrumentResult &Result) {
  for (Function &F : M.Functions) {
    if (F.Blocks.empty())
      continue;
    InductionMarkResult IMR =
        markInductionAndReductions(F, buildFunctionAnalysis(F));
    Result.NumInductionUpdates += IMR.NumInductionUpdates;
    Result.NumReductionUpdates += IMR.NumReductionUpdates;
    Result.NumMemoryReductions += IMR.NumMemoryReductions;

    for (const BasicBlock &BB : F.Blocks) {
      for (const Instruction &I : BB.Insts) {
        if (!I.IsReductionUpdate)
          continue;
        RegionId R = I.EnclosingRegion;
        while (R != NoRegion && M.Regions[R].Kind != RegionKind::Loop)
          R = M.Regions[R].Parent;
        if (R != NoRegion)
          M.Regions[R].HasReduction = true;
      }
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

  runControlDependencePass(M, Result);
  if (!Verify("control-dependence"))
    return Result;

  runInductionMarkingPass(M, Result);
  if (!Verify("induction-marking"))
    return Result;

  return Result;
}

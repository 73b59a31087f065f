//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <iterator>

using namespace kremlin;

namespace {

/// Collects the violations of one part of a module: its region table or
/// one function.
class VerifierImpl {
public:
  VerifierImpl(const Module &M, std::vector<std::string> &Problems)
      : M(M), Problems(Problems) {}

  void checkRegions() {
    for (const StaticRegion &R : M.Regions) {
      if (R.Func >= M.Functions.size()) {
        problem(formatString("region r%u references bad function %u", R.Id,
                             R.Func));
        continue;
      }
      if (R.Parent != NoRegion) {
        if (R.Parent >= M.Regions.size()) {
          problem(formatString("region r%u has bad parent", R.Id));
          continue;
        }
        const StaticRegion &P = M.Regions[R.Parent];
        if (std::find(P.Children.begin(), P.Children.end(), R.Id) ==
            P.Children.end())
          problem(formatString("region r%u missing from parent r%u children",
                               R.Id, R.Parent));
        if (R.Kind == RegionKind::Body && P.Kind != RegionKind::Loop)
          problem(formatString("body region r%u not nested in a loop", R.Id));
        if (R.Kind == RegionKind::Function)
          problem(formatString("function region r%u has a static parent",
                               R.Id));
      } else if (R.Kind != RegionKind::Function) {
        problem(formatString("non-function region r%u has no parent", R.Id));
      }
      for (RegionId C : R.Children) {
        if (C >= M.Regions.size()) {
          problem(formatString("region r%u has bad child", R.Id));
          continue;
        }
        if (M.Regions[C].Parent != R.Id)
          problem(formatString("child r%u does not point back to r%u", C,
                               R.Id));
      }
    }
  }

  void checkFunction(const Function &F) {
    const std::string &FN = F.Name;
    if (F.Blocks.empty()) {
      problem(formatString("@%s: function has no blocks", FN.c_str()));
      return;
    }
    if (F.NumParams > F.NumValues)
      problem(formatString("@%s: NumParams exceeds NumValues", FN.c_str()));
    if (F.FuncRegion >= M.Regions.size())
      problem(formatString("@%s: bad function region", FN.c_str()));

    for (size_t BB = 0; BB < F.Blocks.size(); ++BB) {
      const BasicBlock &Block = F.Blocks[BB];
      if (Block.Insts.empty()) {
        problem(formatString("@%s bb%zu: empty block", FN.c_str(), BB));
        continue;
      }
      if (!isTerminator(Block.Insts.back().Op))
        problem(formatString("@%s bb%zu: missing terminator", FN.c_str(), BB));
      for (size_t Idx = 0; Idx < Block.Insts.size(); ++Idx) {
        const Instruction &I = Block.Insts[Idx];
        InstLoc L{F, BB, Idx};
        if (isTerminator(I.Op) && Idx + 1 != Block.Insts.size())
          problem(L, ": terminator not at end of block");
        checkInstruction(L, I);
      }
    }
  }

private:
  const Module &M;
  std::vector<std::string> &Problems;

  void problem(std::string Msg) { Problems.push_back(std::move(Msg)); }

  /// Position of one instruction. It is formatted into the message only
  /// when a check fails, so a clean module builds no location strings.
  struct InstLoc {
    const Function &F;
    size_t BB;
    size_t Idx;
  };

  void problem(const InstLoc &L, const std::string &What) {
    problem(formatString("@%s bb%zu[%zu]", L.F.Name.c_str(), L.BB, L.Idx) +
            What);
  }

  void checkValue(const InstLoc &L, ValueId V, const char *Role) {
    if (V != NoValue && V >= L.F.NumValues)
      problem(L, formatString(": %s register %%%u out of range (%u)", Role, V,
                              L.F.NumValues));
  }

  void checkInstruction(const InstLoc &L, const Instruction &I) {
    const Function &F = L.F;
    if (producesValue(I.Op))
      checkValue(L, I.Result, "result");
    if (isBinaryOp(I.Op)) {
      if (I.A == NoValue || I.B == NoValue)
        problem(L, ": binary op with missing operand");
      checkValue(L, I.A, "operand");
      checkValue(L, I.B, "operand");
      return;
    }
    if (isUnaryOp(I.Op)) {
      if (I.A == NoValue)
        problem(L, ": unary op with missing operand");
      checkValue(L, I.A, "operand");
      return;
    }
    switch (I.Op) {
    case Opcode::ConstInt:
    case Opcode::ConstFloat:
      break;
    case Opcode::GlobalAddr:
      if (I.Aux >= M.Globals.size())
        problem(L, ": bad global id");
      break;
    case Opcode::FrameAddr:
      if (I.Aux >= F.FrameArrays.size())
        problem(L, ": bad frame array id");
      break;
    case Opcode::Load:
      if (I.A == NoValue)
        problem(L, ": load with no address");
      checkValue(L, I.A, "address");
      break;
    case Opcode::Store:
      if (I.A == NoValue || I.B == NoValue)
        problem(L, ": store with missing operand");
      checkValue(L, I.A, "address");
      checkValue(L, I.B, "value");
      break;
    case Opcode::Call: {
      if (I.Aux >= M.Functions.size()) {
        problem(L, ": bad callee");
        break;
      }
      const Function &Callee = M.Functions[I.Aux];
      std::span<const ValueId> Args = F.callArgs(I);
      if (Args.size() != Callee.NumParams)
        problem(L, formatString(": call to @%s with %zu args, expected %u",
                                Callee.Name.c_str(), Args.size(),
                                Callee.NumParams));
      for (ValueId Arg : Args)
        checkValue(L, Arg, "argument");
      if (Callee.ReturnTy == Type::Void && I.Result != NoValue)
        problem(L, ": void call with a result register");
      break;
    }
    case Opcode::Ret:
      if (I.A != NoValue)
        checkValue(L, I.A, "return value");
      if (F.ReturnTy == Type::Void && I.A != NoValue)
        problem(L, ": returning a value from a void function");
      if (F.ReturnTy != Type::Void && I.A == NoValue)
        problem(L, ": missing return value");
      break;
    case Opcode::Br:
      if (I.Aux >= F.Blocks.size())
        problem(L, ": bad branch target");
      break;
    case Opcode::CondBr:
      if (I.A == NoValue)
        problem(L, ": condbr with no condition");
      checkValue(L, I.A, "condition");
      if (I.Aux >= F.Blocks.size() || I.Aux2 >= F.Blocks.size())
        problem(L, ": bad condbr target");
      if (I.MergeBlock != NoBlock && I.MergeBlock >= F.Blocks.size())
        problem(L, ": bad condbr merge block");
      break;
    case Opcode::RegionEnter:
    case Opcode::RegionExit:
      if (I.Aux >= M.Regions.size())
        problem(L, ": bad region id");
      else if (M.Regions[I.Aux].Func != F.Id)
        problem(L, ": region marker for another function's region");
      break;
    default:
      break;
    }
  }
};

} // namespace

std::vector<std::string> kremlin::verifyModule(const Module &M) {
  // The region table on the caller, then each function on its own task;
  // problems list in that order.
  std::vector<std::string> Problems;
  VerifierImpl(M, Problems).checkRegions();
  std::vector<std::vector<std::string>> PerFunction(M.Functions.size());
  parallelFor(M.Functions.size(), [&](size_t I) {
    VerifierImpl(M, PerFunction[I]).checkFunction(M.Functions[I]);
  });
  for (std::vector<std::string> &FP : PerFunction)
    std::move(FP.begin(), FP.end(), std::back_inserter(Problems));
  return Problems;
}

bool kremlin::moduleVerifies(const Module &M) {
  return verifyModule(M).empty();
}

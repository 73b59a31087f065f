//===- ir/IRPrinter.cpp ---------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "support/StringUtils.h"

using namespace kremlin;

static std::string valueName(ValueId V) {
  if (V == NoValue)
    return "_";
  return formatString("%%%u", V);
}

std::string kremlin::printInstruction(const Module &M, const Function &F,
                                      const Instruction &I) {
  std::string Out;
  if (producesValue(I.Op) && I.Result != NoValue)
    Out += valueName(I.Result) + " = ";
  Out += opcodeName(I.Op);
  switch (I.Op) {
  case Opcode::ConstInt:
    Out += formatString(" %lld", static_cast<long long>(I.IntImm));
    break;
  case Opcode::ConstFloat:
    Out += formatString(" %g", I.FloatImm);
    break;
  case Opcode::GlobalAddr:
    Out += " @" + (I.Aux < M.Globals.size() ? M.Globals[I.Aux].Name
                                            : formatString("g%u", I.Aux));
    break;
  case Opcode::FrameAddr:
    Out += formatString(" frame[%u]", I.Aux);
    break;
  case Opcode::Call: {
    const std::string Callee = I.Aux < M.Functions.size()
                                   ? M.Functions[I.Aux].Name
                                   : formatString("f%u", I.Aux);
    Out += " @" + Callee + "(";
    std::span<const ValueId> Args = F.callArgs(I);
    for (size_t K = 0; K < Args.size(); ++K) {
      if (K)
        Out += ", ";
      Out += valueName(Args[K]);
    }
    Out += ")";
    break;
  }
  case Opcode::Ret:
    if (I.A != NoValue)
      Out += " " + valueName(I.A);
    break;
  case Opcode::Br:
    Out += formatString(" bb%u", I.Aux);
    break;
  case Opcode::CondBr:
    Out += " " + valueName(I.A) +
           formatString(", bb%u, bb%u", I.Aux, I.Aux2);
    if (I.MergeBlock != NoBlock)
      Out += formatString(" ; merge=bb%u", I.MergeBlock);
    break;
  case Opcode::RegionEnter:
  case Opcode::RegionExit: {
    const StaticRegion &R = M.Regions[I.Aux];
    Out += formatString(" r%u (%s %s)", I.Aux, regionKindName(R.Kind),
                        R.Name.c_str());
    break;
  }
  default:
    if (I.A != NoValue)
      Out += " " + valueName(I.A);
    if (I.B != NoValue)
      Out += ", " + valueName(I.B);
    break;
  }
  if (I.IsInductionUpdate)
    Out += " ; induction";
  if (I.IsReductionUpdate)
    Out += " ; reduction";
  return Out;
}

std::string kremlin::printFunction(const Module &M, const Function &F) {
  std::string Out = formatString("func @%s(", F.Name.c_str());
  for (unsigned P = 0; P < F.NumParams; ++P) {
    if (P)
      Out += ", ";
    Out += formatString("%s %%%u",
                        typeName(P < F.ParamTypes.size() ? F.ParamTypes[P]
                                                         : Type::Int),
                        P);
  }
  Out += formatString(") -> %s {\n", typeName(F.ReturnTy));
  for (size_t A = 0; A < F.FrameArrays.size(); ++A)
    Out += formatString("  frame[%zu] %s[%llu] : %s\n", A,
                        F.FrameArrays[A].Name.c_str(),
                        static_cast<unsigned long long>(
                            F.FrameArrays[A].SizeWords),
                        typeName(F.FrameArrays[A].ElemTy));
  for (size_t BB = 0; BB < F.Blocks.size(); ++BB) {
    Out += formatString("bb%zu:", BB);
    if (!F.Blocks[BB].Name.empty())
      Out += "  ; " + F.Blocks[BB].Name;
    Out += '\n';
    for (const Instruction &I : F.Blocks[BB].Insts)
      Out += "  " + printInstruction(M, F, I) + "\n";
  }
  Out += "}\n";
  return Out;
}

std::string kremlin::printModule(const Module &M) {
  std::string Out;
  for (const GlobalArray &G : M.Globals)
    Out += formatString("global %s[%llu] : %s\n", G.Name.c_str(),
                        static_cast<unsigned long long>(G.SizeWords),
                        typeName(G.ElemTy));
  if (!M.Globals.empty())
    Out += '\n';
  for (const StaticRegion &R : M.Regions)
    Out += formatString("region r%u kind=%s func=%u parent=%s name=%s %s\n",
                        R.Id, regionKindName(R.Kind), R.Func,
                        R.Parent == NoRegion
                            ? "-"
                            : formatString("r%u", R.Parent).c_str(),
                        R.Name.c_str(), R.sourceSpan().c_str());
  if (!M.Regions.empty())
    Out += '\n';
  for (const Function &F : M.Functions) {
    Out += printFunction(M, F);
    Out += '\n';
  }
  return Out;
}

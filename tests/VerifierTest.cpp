//===- tests/VerifierTest.cpp - IR verifier negative paths ----------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include "gtest/gtest.h"

using namespace kremlin;

namespace {

/// Builds a minimal valid module: one void function that just returns.
struct ModuleFixture {
  Module M;
  FuncId Id;

  ModuleFixture() {
    Function F;
    F.Name = "f";
    F.ReturnTy = Type::Void;
    Id = M.addFunction(std::move(F));
    StaticRegion R;
    R.Kind = RegionKind::Function;
    R.Func = Id;
    R.Name = "f";
    M.Functions[Id].FuncRegion = M.addRegion(std::move(R));
    IRBuilder B(M, M.Functions[Id]);
    B.setInsertPoint(B.createBlock("entry"));
    B.emitRegionEnter(M.Functions[Id].FuncRegion);
    B.emitRegionExit(M.Functions[Id].FuncRegion);
    B.emitRet();
  }

  Function &fn() { return M.Functions[Id]; }
  Instruction &inst(size_t I) { return fn().Blocks[0].Insts[I]; }
};

bool hasProblem(const Module &M, const char *Needle) {
  for (const std::string &P : verifyModule(M))
    if (P.find(Needle) != std::string::npos)
      return true;
  return false;
}

TEST(Verifier, AcceptsValidModule) {
  ModuleFixture F;
  EXPECT_TRUE(moduleVerifies(F.M));
}

TEST(Verifier, MissingTerminator) {
  ModuleFixture F;
  F.fn().Blocks[0].Insts.pop_back(); // Drop the ret.
  EXPECT_TRUE(hasProblem(F.M, "missing terminator"));
}

TEST(Verifier, EmptyBlock) {
  ModuleFixture F;
  F.fn().Blocks.push_back(BasicBlock());
  EXPECT_TRUE(hasProblem(F.M, "empty block"));
}

TEST(Verifier, TerminatorMidBlock) {
  ModuleFixture F;
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  F.fn().Blocks[0].Insts.insert(F.fn().Blocks[0].Insts.begin(), Ret);
  EXPECT_TRUE(hasProblem(F.M, "terminator not at end"));
}

TEST(Verifier, OperandOutOfRange) {
  ModuleFixture F;
  Instruction Add;
  Add.Op = Opcode::Add;
  Add.Result = 0;
  Add.A = 500; // No such register.
  Add.B = 501;
  F.fn().NumValues = 1;
  F.fn().Blocks[0].Insts.insert(F.fn().Blocks[0].Insts.begin(), Add);
  EXPECT_TRUE(hasProblem(F.M, "out of range"));
}

TEST(Verifier, BadBranchTarget) {
  ModuleFixture F;
  Instruction &Term = F.fn().Blocks[0].Insts.back();
  Term.Op = Opcode::Br;
  Term.Aux = 99;
  EXPECT_TRUE(hasProblem(F.M, "bad branch target"));
}

TEST(Verifier, BadCallee) {
  ModuleFixture F;
  Instruction Call;
  Call.Op = Opcode::Call;
  Call.Result = NoValue;
  Call.Aux = 42; // No such function.
  F.fn().Blocks[0].Insts.insert(F.fn().Blocks[0].Insts.begin(), Call);
  EXPECT_TRUE(hasProblem(F.M, "bad callee"));
}

TEST(Verifier, CallArgumentCountMismatch) {
  ModuleFixture F;
  Function G;
  G.Name = "g";
  G.ReturnTy = Type::Void;
  G.NumParams = 2;
  G.NumValues = 2;
  FuncId GId = F.M.addFunction(std::move(G));
  {
    StaticRegion R;
    R.Kind = RegionKind::Function;
    R.Func = GId;
    R.Name = "g";
    F.M.Functions[GId].FuncRegion = F.M.addRegion(std::move(R));
    IRBuilder B(F.M, F.M.Functions[GId]);
    B.setInsertPoint(B.createBlock("entry"));
    B.emitRet();
  }
  Instruction Call;
  Call.Op = Opcode::Call;
  Call.Result = NoValue;
  Call.Aux = GId; // No arguments; g expects 2.
  F.fn().Blocks[0].Insts.insert(F.fn().Blocks[0].Insts.begin(), Call);
  EXPECT_TRUE(hasProblem(F.M, "expected 2"));
}

TEST(Verifier, ReturnTypeMismatch) {
  ModuleFixture F;
  Instruction &Term = F.fn().Blocks[0].Insts.back();
  Term.A = 0; // Returning a value from a void function.
  F.fn().NumValues = 1;
  EXPECT_TRUE(hasProblem(F.M, "void function"));
}

TEST(Verifier, BadRegionMarker) {
  ModuleFixture F;
  F.fn().Blocks[0].Insts[0].Aux = 12345;
  EXPECT_TRUE(hasProblem(F.M, "bad region id"));
}

TEST(Verifier, RegionParentChildAsymmetry) {
  ModuleFixture F;
  StaticRegion Loop;
  Loop.Kind = RegionKind::Loop;
  Loop.Func = F.Id;
  Loop.Parent = F.fn().FuncRegion; // Parent link set...
  Loop.Name = "for";
  F.M.addRegion(std::move(Loop)); // ...but parent's Children not updated.
  EXPECT_TRUE(hasProblem(F.M, "missing from parent"));
}

TEST(Verifier, BodyRegionMustNestInLoop) {
  ModuleFixture F;
  StaticRegion Body;
  Body.Kind = RegionKind::Body;
  Body.Func = F.Id;
  Body.Parent = F.fn().FuncRegion; // Should be a Loop region.
  Body.Name = "body";
  RegionId Id = F.M.addRegion(std::move(Body));
  F.M.Regions[F.fn().FuncRegion].Children.push_back(Id);
  EXPECT_TRUE(hasProblem(F.M, "not nested in a loop"));
}

TEST(Verifier, BadGlobalReference) {
  ModuleFixture F;
  Instruction GA;
  GA.Op = Opcode::GlobalAddr;
  GA.Result = 0;
  GA.Aux = 3; // No globals exist.
  F.fn().NumValues = 1;
  F.fn().Blocks[0].Insts.insert(F.fn().Blocks[0].Insts.begin(), GA);
  EXPECT_TRUE(hasProblem(F.M, "bad global id"));
}

TEST(Verifier, BadFrameArrayReference) {
  ModuleFixture F;
  Instruction FA;
  FA.Op = Opcode::FrameAddr;
  FA.Result = 0;
  FA.Aux = 0; // No frame arrays exist.
  F.fn().NumValues = 1;
  F.fn().Blocks[0].Insts.insert(F.fn().Blocks[0].Insts.begin(), FA);
  EXPECT_TRUE(hasProblem(F.M, "bad frame array"));
}

TEST(Verifier, ProblemsListInFunctionOrderAfterTheRegionTable) {
  // Three more functions, each with its own problem, and one bad region:
  // the region table's problems come first, then each function's in
  // function order, whichever order they are checked in.
  ModuleFixture F;
  for (const char *Name : {"g", "h", "k"}) {
    Function Fn;
    Fn.Name = Name;
    Fn.ReturnTy = Type::Void;
    FuncId Id = F.M.addFunction(std::move(Fn));
    StaticRegion R;
    R.Kind = RegionKind::Function;
    R.Func = Id;
    R.Name = Name;
    F.M.Functions[Id].FuncRegion = F.M.addRegion(std::move(R));
    IRBuilder B(F.M, F.M.Functions[Id]);
    B.setInsertPoint(B.createBlock("entry"));
    B.emitRegionEnter(F.M.Functions[Id].FuncRegion);
    B.emitRet();
  }
  F.M.Functions[1].Blocks[0].Insts.pop_back(); // g: drop the ret.
  F.M.Functions[2].Blocks.push_back(BasicBlock()); // h: an empty block.
  F.M.Functions[3].Blocks[0].Insts[0].Aux = 12345; // k: a bad region id.
  StaticRegion Loop;
  Loop.Kind = RegionKind::Loop;
  Loop.Func = F.Id;
  Loop.Parent = F.fn().FuncRegion; // Not among its parent's children.
  F.M.addRegion(std::move(Loop));
  EXPECT_EQ(verifyModule(F.M),
            (std::vector<std::string>{"region r4 missing from parent r0 "
                                      "children",
                                      "@g bb0: missing terminator",
                                      "@h bb1: empty block",
                                      "@k bb0[0]: bad region id"}));
}

TEST(Verifier, CondBrBadMergeBlock) {
  ModuleFixture F;
  Instruction &Term = F.fn().Blocks[0].Insts.back();
  Term.Op = Opcode::CondBr;
  Term.A = 0;
  Term.Aux = 0;
  Term.Aux2 = 0;
  Term.MergeBlock = 77;
  F.fn().NumValues = 1;
  EXPECT_TRUE(hasProblem(F.M, "bad condbr merge block"));
}

} // namespace

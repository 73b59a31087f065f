//===- tests/LowerTest.cpp - AST -> IR lowering tests ---------------------===//

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "parser/Lower.h"

#include "gtest/gtest.h"

using namespace kremlin;

namespace {

std::unique_ptr<Module> lowerOk(const std::string &Src) {
  LowerResult R = compileMiniC(Src, "t.c");
  EXPECT_TRUE(R.succeeded()) << (R.Errors.empty() ? "" : R.Errors[0]);
  std::vector<std::string> Problems = verifyModule(*R.M);
  EXPECT_TRUE(Problems.empty()) << (Problems.empty() ? "" : Problems[0]);
  return std::move(R.M);
}

std::vector<std::string> lowerErrors(const std::string &Src) {
  return compileMiniC(Src, "t.c").Errors;
}

/// Counts instructions with \p Op across a function.
unsigned countOps(const Function &F, Opcode Op) {
  unsigned N = 0;
  for (const BasicBlock &BB : F.Blocks)
    for (const Instruction &I : BB.Insts)
      N += I.Op == Op;
  return N;
}

TEST(Lower, FunctionRegionMarkers) {
  std::unique_ptr<Module> M = lowerOk("int main() { return 3; }");
  const Function &F = M->Functions[0];
  EXPECT_EQ(countOps(F, Opcode::RegionEnter), 1u);
  EXPECT_EQ(countOps(F, Opcode::RegionExit), 1u);
  ASSERT_EQ(M->Regions.size(), 1u);
  EXPECT_EQ(M->Regions[0].Kind, RegionKind::Function);
  EXPECT_EQ(M->Regions[0].Name, "main");
  EXPECT_EQ(F.FuncRegion, M->Regions[0].Id);
}

TEST(Lower, LoopCreatesLoopAndBodyRegions) {
  std::unique_ptr<Module> M = lowerOk(
      "int main() { for (int i = 0; i < 4; i = i + 1) { } return 0; }");
  ASSERT_EQ(M->Regions.size(), 3u);
  EXPECT_EQ(M->Regions[0].Kind, RegionKind::Function);
  EXPECT_EQ(M->Regions[1].Kind, RegionKind::Loop);
  EXPECT_EQ(M->Regions[2].Kind, RegionKind::Body);
  EXPECT_EQ(M->Regions[1].Parent, M->Regions[0].Id);
  EXPECT_EQ(M->Regions[2].Parent, M->Regions[1].Id);
  // 1 func enter/exit + 1 loop enter/exit + body enter/exit per iteration
  // site (statically one each).
  const Function &F = M->Functions[0];
  EXPECT_EQ(countOps(F, Opcode::RegionEnter), 3u);
  EXPECT_EQ(countOps(F, Opcode::RegionExit), 3u);
}

TEST(Lower, NestedLoopRegionNesting) {
  std::unique_ptr<Module> M = lowerOk(R"(
    int main() {
      for (int i = 0; i < 2; i = i + 1) {
        while (i < 1) { i = i + 2; }
      }
      return 0;
    }
  )");
  // func, for, for.body, while, while.body.
  ASSERT_EQ(M->Regions.size(), 5u);
  const StaticRegion &While = M->Regions[3];
  EXPECT_EQ(While.Kind, RegionKind::Loop);
  EXPECT_EQ(While.Name, "while");
  // The while nests inside the for's body region.
  EXPECT_EQ(M->Regions[While.Parent].Kind, RegionKind::Body);
}

TEST(Lower, ReturnInsideLoopClosesAllRegions) {
  std::unique_ptr<Module> M = lowerOk(R"(
    int main() {
      for (int i = 0; i < 4; i = i + 1) {
        if (i == 2) { return i; }
      }
      return 0;
    }
  )");
  // The early return must emit RegionExit for body, loop, and function.
  const Function &F = M->Functions[0];
  bool FoundTripleExit = false;
  for (const BasicBlock &BB : F.Blocks) {
    unsigned Exits = 0;
    for (const Instruction &I : BB.Insts) {
      if (I.Op == Opcode::RegionExit)
        ++Exits;
      if (I.Op == Opcode::Ret && Exits == 3)
        FoundTripleExit = true;
    }
  }
  EXPECT_TRUE(FoundTripleExit);
}

TEST(Lower, CondBrMergeBlocksSet) {
  std::unique_ptr<Module> M = lowerOk(R"(
    int main() {
      int x = 0;
      if (x < 1) { x = 1; } else { x = 2; }
      while (x > 0) { x = x - 1; }
      return x;
    }
  )");
  for (const BasicBlock &BB : M->Functions[0].Blocks) {
    for (const Instruction &I : BB.Insts) {
      if (I.Op == Opcode::CondBr) {
        EXPECT_NE(I.MergeBlock, NoBlock);
      }
    }
  }
}

TEST(Lower, TypePromotionIntToFloat) {
  std::unique_ptr<Module> M = lowerOk(
      "float f(int a, float b) { return a + b; }");
  const Function &F = M->Functions[0];
  EXPECT_EQ(countOps(F, Opcode::IntToFloat), 1u);
  EXPECT_EQ(countOps(F, Opcode::FAdd), 1u);
  EXPECT_EQ(countOps(F, Opcode::Add), 0u);
}

TEST(Lower, MultiDimFlattening) {
  std::unique_ptr<Module> M = lowerOk(
      "int m[4][8];\nint f(int i, int j) { return m[i][j]; }");
  const Function &F = M->Functions[0];
  // flat = i * 8 + j: one Mul, one Add, one PtrAdd, one Load.
  EXPECT_EQ(countOps(F, Opcode::Mul), 1u);
  EXPECT_EQ(countOps(F, Opcode::PtrAdd), 1u);
  EXPECT_EQ(countOps(F, Opcode::Load), 1u);
}

TEST(Lower, ArrayArgumentPassesBaseAddress) {
  std::unique_ptr<Module> M = lowerOk(R"(
    int g(int a[]) { return a[0]; }
    int b[4];
    int main() { return g(b); }
  )");
  const Function &Main = M->Functions[M->findFunction("main")];
  EXPECT_EQ(countOps(Main, Opcode::GlobalAddr), 1u);
  EXPECT_EQ(countOps(Main, Opcode::Call), 1u);
}

TEST(Lower, FrameArraysRegistered) {
  std::unique_ptr<Module> M = lowerOk(
      "void f() { int a[8]; float b[2][3]; a[0] = 1; b[1][2] = 0.5; }");
  const Function &F = M->Functions[0];
  ASSERT_EQ(F.FrameArrays.size(), 2u);
  EXPECT_EQ(F.FrameArrays[0].SizeWords, 8u);
  EXPECT_EQ(F.FrameArrays[1].SizeWords, 6u);
  EXPECT_EQ(F.FrameArrays[1].ElemTy, Type::Float);
}

TEST(Lower, VoidFunctionImplicitReturn) {
  std::unique_ptr<Module> M = lowerOk("void f() { int x = 1; }");
  const Function &F = M->Functions[0];
  EXPECT_EQ(countOps(F, Opcode::Ret), 1u);
}

TEST(Lower, NonVoidImplicitReturnZero) {
  // Falling off the end of an int function returns 0 (verified module).
  std::unique_ptr<Module> M = lowerOk("int f() { int x = 1; }");
  EXPECT_TRUE(moduleVerifies(*M));
}

TEST(Lower, InstructionsStampedWithRegions) {
  std::unique_ptr<Module> M = lowerOk(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) { s = s + i; }
      return s;
    }
  )");
  const Function &F = M->Functions[0];
  bool SawBodyStamp = false;
  for (const BasicBlock &BB : F.Blocks)
    for (const Instruction &I : BB.Insts)
      if (I.EnclosingRegion != UINT32_MAX &&
          M->Regions[I.EnclosingRegion].Kind == RegionKind::Body)
        SawBodyStamp = true;
  EXPECT_TRUE(SawBodyStamp);
}

TEST(Lower, ScopesShadowing) {
  std::unique_ptr<Module> M = lowerOk(R"(
    int main() {
      int x = 1;
      { int x = 2; x = x + 1; }
      return x;
    }
  )");
  EXPECT_TRUE(moduleVerifies(*M));
}

// --- Semantic errors --------------------------------------------------------

TEST(Lower, ErrorUndeclaredVariable) {
  std::vector<std::string> E = lowerErrors("int main() { return nope; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("undeclared variable 'nope'"), std::string::npos);
}

TEST(Lower, ErrorUndeclaredFunction) {
  std::vector<std::string> E = lowerErrors("int main() { return g(); }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("undeclared function"), std::string::npos);
}

TEST(Lower, ErrorWrongArgCount) {
  std::vector<std::string> E = lowerErrors(
      "int g(int a) { return a; }\nint main() { return g(1, 2); }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("expects 1"), std::string::npos);
}

TEST(Lower, ErrorRedeclaration) {
  std::vector<std::string> E =
      lowerErrors("int main() { int x = 1; int x = 2; return x; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("redeclaration"), std::string::npos);
}

TEST(Lower, ErrorWrongDimensionCount) {
  std::vector<std::string> E =
      lowerErrors("int m[4][4];\nint main() { return m[1]; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("2 dimensions"), std::string::npos);
}

TEST(Lower, ErrorAssignToArrayName) {
  std::vector<std::string> E =
      lowerErrors("int a[4];\nint main() { a = 1; return 0; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("cannot assign to array"), std::string::npos);
}

TEST(Lower, PrinterSmoke) {
  std::unique_ptr<Module> M = lowerOk(
      "int a[4];\nint main() { a[1] = 2; return a[1]; }");
  std::string Text = printModule(*M);
  EXPECT_NE(Text.find("func @main"), std::string::npos);
  EXPECT_NE(Text.find("global a[4]"), std::string::npos);
  EXPECT_NE(Text.find("region.enter"), std::string::npos);
  EXPECT_NE(Text.find("store"), std::string::npos);
}

} // namespace

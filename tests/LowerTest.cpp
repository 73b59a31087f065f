//===- tests/LowerTest.cpp - AST -> IR lowering tests ---------------------===//

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "parser/Lower.h"
#include "suite/PaperSuite.h"
#include "suite/SourceGenerator.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

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
  // The innermost enclosing Loop region, from each region of the nest.
  EXPECT_EQ(M->enclosingLoopRegion(4), 3u);
  EXPECT_EQ(M->enclosingLoopRegion(3), 3u);
  EXPECT_EQ(M->enclosingLoopRegion(2), 1u);
  EXPECT_EQ(M->enclosingLoopRegion(0), NoRegion);
  // A parent link that leaves the region table ends the walk.
  M->Regions[2].Parent = 99;
  EXPECT_EQ(M->enclosingLoopRegion(2), NoRegion);
  EXPECT_EQ(M->enclosingLoopRegion(4), 3u);
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

// --- Lowered IR at scale ----------------------------------------------------

/// fnv1a over every field lowering sets, fed field by field.
class IrHash {
public:
  void add(uint64_t V) {
    for (unsigned I = 0; I < 8; ++I, V >>= 8) {
      Hash ^= V & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  }
  void add(const std::string &Text) {
    add(Text.size());
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

/// One line pinning the module lowerProgram builds for one program: every
/// instruction field (opcode, type, operands, block targets, merge block,
/// region stamp, immediates, call arguments, line, marks), every block
/// name, each function's signature, register count and frame arrays, the
/// globals, and the region table.
std::string loweredIrFingerprint(const std::string &Name,
                                 const std::string &Source) {
  LowerResult R = compileMiniC(Source, Name);
  EXPECT_TRUE(R.succeeded()) << Name << ": "
                             << (R.Errors.empty() ? "" : R.Errors[0]);
  if (!R.succeeded())
    return Name + " lowering failed";
  const Module &M = *R.M;
  IrHash H;
  H.add(M.SourceName);
  size_t Blocks = 0, Insts = 0;
  for (const Function &F : M.Functions) {
    H.add(F.Id);
    H.add(F.Name);
    H.add(static_cast<uint64_t>(F.ReturnTy));
    H.add(F.NumParams);
    H.add(F.ParamTypes.size());
    for (Type T : F.ParamTypes)
      H.add(static_cast<uint64_t>(T));
    H.add(F.NumValues);
    H.add(F.FuncRegion);
    H.add(F.FrameArrays.size());
    for (const FrameArray &FA : F.FrameArrays) {
      H.add(FA.Name);
      H.add(FA.SizeWords);
      H.add(static_cast<uint64_t>(FA.ElemTy));
    }
    H.add(F.Blocks.size());
    Blocks += F.Blocks.size();
    for (const BasicBlock &BB : F.Blocks) {
      H.add(BB.Name);
      H.add(BB.Insts.size());
      Insts += BB.Insts.size();
      for (const Instruction &I : BB.Insts) {
        H.add(static_cast<uint64_t>(I.Op));
        H.add(static_cast<uint64_t>(I.Ty));
        H.add(I.Result);
        H.add(I.A);
        H.add(I.B);
        H.add(I.Aux);
        H.add(I.Aux2);
        H.add(I.MergeBlock);
        H.add(I.EnclosingRegion);
        H.add(static_cast<uint64_t>(I.IntImm));
        H.add(std::bit_cast<uint64_t>(I.FloatImm));
        std::span<const ValueId> Args = F.callArgs(I);
        H.add(Args.size());
        for (ValueId Arg : Args)
          H.add(Arg);
        H.add(I.Line);
        H.add(I.IsInductionUpdate);
        H.add(I.IsReductionUpdate);
      }
    }
  }
  H.add(M.Globals.size());
  for (const GlobalArray &G : M.Globals) {
    H.add(G.Id);
    H.add(G.Name);
    H.add(G.SizeWords);
    H.add(static_cast<uint64_t>(G.ElemTy));
  }
  H.add(M.Regions.size());
  for (const StaticRegion &Reg : M.Regions) {
    H.add(Reg.Id);
    H.add(static_cast<uint64_t>(Reg.Kind));
    H.add(Reg.Func);
    H.add(Reg.Parent);
    H.add(Reg.Children.size());
    for (RegionId C : Reg.Children)
      H.add(C);
    H.add(Reg.Name);
    H.add(Reg.File);
    H.add(Reg.StartLine);
    H.add(Reg.EndLine);
    H.add(Reg.HasReduction);
  }
  return formatString("%s funcs=%zu blocks=%zu insts=%zu globals=%zu "
                      "regions=%zu hash=%016llx",
                      Name.c_str(), M.Functions.size(), Blocks, Insts,
                      M.Globals.size(), M.Regions.size(),
                      static_cast<unsigned long long>(H.value()));
}

TEST(Lower, InstructionListsLiveInTheModulesArenas) {
  // One arena per share of the functions; a copy of the module takes its
  // lists from the default resource and outlives the original's arenas.
  std::unique_ptr<Module> M =
      lowerOk(generateBenchmark(cyclingSiteSpec(40, 4)).Source);
  EXPECT_EQ(M->InstArenas.size(),
            std::min<size_t>(availableCpus(), M->Functions.size()));
  auto InArena = [&](const std::pmr::memory_resource *R) {
    return std::any_of(M->InstArenas.begin(), M->InstArenas.end(),
                       [&](const auto &A) { return A.get() == R; });
  };
  for (const Function &F : M->Functions)
    for (const BasicBlock &BB : F.Blocks)
      EXPECT_TRUE(InArena(BB.Insts.get_allocator().resource()));

  Module Copy = *M;
  const std::string Before = printModule(*M);
  M.reset();
  EXPECT_TRUE(Copy.InstArenas.empty());
  for (const Function &F : Copy.Functions)
    for (const BasicBlock &BB : F.Blocks)
      EXPECT_EQ(BB.Insts.get_allocator().resource(),
                std::pmr::get_default_resource());
  EXPECT_EQ(printModule(Copy), Before);
}

TEST(InstArena, ReusesAFreedBlockForTheNextListOfItsClass) {
  InstArena A;
  void *P = A.allocate(100); // The 128-byte class.
  A.deallocate(P, 100);
  EXPECT_EQ(A.allocate(120), P);
  EXPECT_NE(A.allocate(60), P);
}

TEST(InstArena, ReturnsItsChunksToTheCacheForTheNextArena) {
  void *First = nullptr;
  {
    InstArena A;
    First = A.allocate(64);
  }
  InstArena B;
  EXPECT_EQ(B.allocate(64), First);
}

TEST(InstArena, ListsBeyondTheLargestClassGetTheirOwnMapping) {
  InstArena A;
  InstList L(&A);
  for (uint32_t I = 0; I < 2000; ++I) {
    Instruction In;
    In.Aux = I;
    L.push_back(In);
  }
  L.shrink_to_fit();
  ASSERT_EQ(L.size(), 2000u);
  for (uint32_t I = 0; I < 2000; I += 199)
    EXPECT_EQ(L[I].Aux, I);
}

TEST(Lower, LoweredIrFingerprintsMatchGolden) {
  // The module lowerProgram builds for the 11 suite programs, two 300-site
  // programs, one 100-site kernel and every example must not move when the
  // front end is rewritten for speed.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const std::string &Name : paperBenchmarkNames())
    Programs.push_back({Name, generatePaperBenchmark(Name).Source});
  for (unsigned Salt = 0; Salt < 2; ++Salt)
    Programs.push_back({"sites300_" + std::to_string(Salt),
                        generateBenchmark(cyclingSiteSpec(300, 4, Salt))
                            .Source});
  Programs.push_back(
      {"kernel100", generateBenchmark(cyclingSiteSpec(100, 100)).Source});
  std::vector<std::filesystem::path> Examples;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(KREMLIN_EXAMPLES_DIR) + "/minic"))
    if (Entry.path().extension() == ".c")
      Examples.push_back(Entry.path());
  std::sort(Examples.begin(), Examples.end());
  ASSERT_FALSE(Examples.empty());
  for (const std::filesystem::path &Path : Examples) {
    std::ifstream File(Path);
    std::stringstream Text;
    Text << File.rdbuf();
    Programs.push_back({Path.filename().string(), Text.str()});
  }

  std::ifstream In(std::string(KREMLIN_GOLDEN_DIR) +
                   "/lowered_ir_fingerprint.txt");
  ASSERT_TRUE(In.good()) << "missing tests/golden/lowered_ir_fingerprint.txt";
  std::map<std::string, std::string> Golden;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Golden[Line.substr(0, Line.find(' '))] = Line;
  EXPECT_EQ(Golden.size(), Programs.size());
  for (const auto &[Name, Source] : Programs) {
    std::string Line = loweredIrFingerprint(Name, Source);
    auto It = Golden.find(Name);
    EXPECT_TRUE(It != Golden.end() && It->second == Line)
        << "lowered IR of " << Name
        << " differs; if the change is intended, its line in "
           "tests/golden/lowered_ir_fingerprint.txt becomes:\n"
        << Line;
  }
}

} // namespace

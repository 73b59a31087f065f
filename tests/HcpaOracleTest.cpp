//===- tests/HcpaOracleTest.cpp - runtime vs. independent HCPA oracle -----===//
//
// Fixed programs on which the interpreter plus KremlinRuntime must agree
// bit for bit with the HCPA oracle (HcpaOracle.h): the shipped MiniC
// examples without recursion, the Figure 2-3 tracking program, the
// dead-frame-array regression, every paper-suite program, and hand-built
// IR at each boundary where the tape decoder must stop growing an
// expression tree. PropertyTest sweeps the same comparison over random
// programs.
//
//===----------------------------------------------------------------------===//

#include "HcpaOracle.h"
#include "TestUtil.h"

#include "interp/Tape.h"
#include "ir/IRBuilder.h"
#include "suite/PaperSuite.h"

#include <fstream>
#include <optional>
#include <sstream>

using namespace kremlin;
using namespace kremlin::test;

namespace {

std::string readExample(const std::string &Name) {
  std::ifstream In(KREMLIN_EXAMPLES_DIR "/minic/" + Name);
  EXPECT_TRUE(In.good()) << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(HcpaOracle, MatchesRuntimeOnExamples) {
  // recursion_demo.c is left out: the oracle needs seconds for it.
  for (const char *Name : {"lint_demo.c", "quickstart.c", "reduction_demo.c"}) {
    SCOPED_TRACE(Name);
    expectProfileMatchesOracle(readExample(Name));
  }
}

TEST(HcpaOracle, MatchesRuntimeOnTracking) {
  expectProfileMatchesOracle(trackingSource());
}

TEST(HcpaOracle, MatchesRuntimeOnDeadFrameArrays) {
  expectProfileMatchesOracle(DeadFrameArraySource);
}

/// One suite program per case (each is its own ctest case), checked at the
/// default depth window and at a narrow one that starts below the root, so
/// levels fall outside it at both ends.
class HcpaOracleSuiteProgram : public ::testing::TestWithParam<std::string> {
};

TEST_P(HcpaOracleSuiteProgram, MatchesRuntimeAtBothWindows) {
  KremlinConfig Narrow;
  Narrow.MinLevel = 1;
  Narrow.NumLevels = 2;
  std::string Source = generatePaperBenchmark(GetParam()).Source;
  expectProfileMatchesOracle(Source);
  expectProfileMatchesOracle(Source, Narrow);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, HcpaOracleSuiteProgram,
    ::testing::ValuesIn(paperBenchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

// --- One event per branch, jump and update -------------------------------
//
// Each conditional branch is one Branch event that carries its compare (an
// Op, a Tree, or none), each br one Jump, and each induction/reduction
// update with its copy back one Update. The suite runs only the Op form of
// Branch and no reduction; these programs run every form, and the profile
// must still match the oracle, which executes every instruction on its own.

/// How the decoder lowered a program's branches and updates.
struct TapeForms {
  unsigned PlainCondBr = 0; ///< CondBr on a value no compare computes.
  unsigned CmpOp = 0;       ///< TapeCmpBr whose compare is one Op.
  unsigned CmpTree = 0;     ///< TapeCmpBr whose compare roots a DAG.
  unsigned Updates = 0;     ///< TapeUpdate pairs...
  unsigned ReductionUpdates = 0; ///< ...whose move is no update itself.
};

TapeForms tapeForms(const std::string &Source) {
  std::unique_ptr<Module> M = compileOrDie(Source);
  instrumentModule(*M);
  ModuleTape Tape(*M, std::vector<uint64_t>(M->Globals.size(), 0));
  TapeForms F;
  for (const TapeFunction &TF : Tape.Funcs)
    for (const TapeInst &I : TF.Code) {
      if (I.Op == static_cast<uint8_t>(Opcode::CondBr))
        ++F.PlainCondBr;
      else if (I.Op == TapeCmpBr)
        ++((I.Flags & TreeRootFlag) ? F.CmpTree : F.CmpOp);
      else if (I.Op == TapeUpdate) {
        ++F.Updates;
        F.ReductionUpdates += !(I.Flags & MoveBreakDepFlag);
      }
    }
  return F;
}

TEST(HcpaOracle, BranchOnAPlainValueCarriesNoCompare) {
  // if (x) branches on a variable, if (a && b) on an And: neither is a
  // compare, so each Branch event carries none, and the And keeps its own
  // Tree event before it.
  const char *Src = R"(
    int a[32];
    int main() {
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) { a[i] = (i * 7) % 5; }
      for (int i = 0; i < 32; i = i + 1) {
        int x = a[i];
        if (x) { s = s + x * 3; }
        if (a[i] > 1 && a[(i + 1) % 32] < 3) { s = s - 1; }
        s = s % 1009;
      }
      return s;
    }
  )";
  EXPECT_EQ(tapeForms(Src).PlainCondBr, 2u);
  expectProfileMatchesOracle(Src);
}

TEST(HcpaOracle, BranchCarriesTheDagItsCompareRoots) {
  // a[i] + b[i] * a[i - 1] < b[i - 1] + 4: both sums and the product fold
  // into the compare, whose Tree rides in the Branch event.
  const char *Src = R"(
    int a[16];
    int b[16];
    int main() {
      int n = 0;
      for (int i = 0; i < 16; i = i + 1) { a[i] = i % 5; b[i] = (i * 3) % 7; }
      for (int i = 1; i < 16; i = i + 1) {
        if (a[i] + b[i] * a[i - 1] < b[i - 1] + 4) { n = n + a[i]; }
      }
      return n;
    }
  )";
  EXPECT_EQ(tapeForms(Src).CmpTree, 1u);
  expectProfileMatchesOracle(Src);
}

TEST(HcpaOracle, BranchIntoItsOwnMergePopsItsScopeInTheSameEvent) {
  // An if without else falls through to its merge block, and a loop test
  // exits to its own: the scope the branch pushes ends in its own event,
  // so s = s * 3 % 1009 after the if carries only the loop's dependence.
  const char *Src = R"(
    int a[24];
    int main() {
      int s = 0;
      for (int i = 0; i < 24; i = i + 1) { a[i] = (i * 5) % 11; }
      for (int i = 0; i < 24; i = i + 1) {
        if (a[i] > 6) { s = s + a[i] * a[i]; }
        s = s * 3 % 1009;
      }
      return s;
    }
  )";
  expectProfileMatchesOracle(Src);
}

TEST(HcpaOracle, LoopLatchJumpPopsTheHeadersScope) {
  // Each latch's br re-enters its header, which ends the scope the
  // header's branch pushed: a data-dependent while test serializes its
  // iterations through the value it tests, and each inner counted loop's
  // latch pops only its own header's scope, not the outer one's.
  const char *Src = R"(
    int a[8];
    int main() {
      int x = 1000;
      int steps = 0;
      while (x > 1) {
        x = x / 2 + x % 3;
        for (int j = 0; j < 8; j = j + 1) { a[j] = a[j] + x; }
        steps = steps + 1;
      }
      return steps * 100 + a[3] % 97;
    }
  )";
  expectProfileMatchesOracle(Src);
}

TEST(HcpaOracle, UpdatePairsOfIntAndFloatReductions) {
  // s = s + a[i] and g = g + f[i]: each reduction update and its copy back
  // is one Update event, as is each loop's induction update.
  const char *Src = R"(
    int a[32];
    float f[32];
    int main() {
      for (int i = 0; i < 32; i = i + 1) { a[i] = i * 3 % 7; f[i] = i * 0.5; }
      int s = 0;
      float g = 0.0;
      for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; }
      for (int i = 0; i < 32; i = i + 1) { g = g + f[i]; }
      return s + g;
    }
  )";
  TapeForms F = tapeForms(Src);
  EXPECT_EQ(F.Updates, 5u);
  EXPECT_EQ(F.ReductionUpdates, 2u);
  expectProfileMatchesOracle(Src);
}

// --- Hand-built expression trees -----------------------------------------
//
// Shapes MiniC cannot lower to, built with IRBuilder: straight-line code in
// main()'s function region, which can also enter and exit a nested region
// and call f() (which returns 7). Each case checks the tape decoder's
// decision (how many ops it folded) and then the profile against the
// oracle, which executes every op on its own.

class HandBuilt {
public:
  HandBuilt() {
    GlobalArray G;
    G.Name = "g";
    G.SizeWords = 4;
    M.addGlobal(std::move(G));
    Function Main;
    Main.Name = "main";
    Main.ReturnTy = Type::Int;
    MainId = M.addFunction(std::move(Main));
    Function F;
    F.Name = "f";
    F.ReturnTy = Type::Int;
    FId = M.addFunction(std::move(F));
    RegionId MainRegion = addRegion(RegionKind::Function, MainId, NoRegion);
    Nested = addRegion(RegionKind::Loop, MainId, MainRegion);
    RegionId FRegion = addRegion(RegionKind::Function, FId, NoRegion);
    M.Functions[MainId].FuncRegion = MainRegion;
    M.Functions[FId].FuncRegion = FRegion;

    IRBuilder FB(M, M.Functions[FId]);
    FB.setInsertPoint(FB.createBlock("entry"));
    FB.emitRegionEnter(FRegion);
    ValueId Seven = FB.emitConstInt(7);
    FB.emitRegionExit(FRegion);
    FB.emitRet(Seven);

    B.emplace(M, M.Functions[MainId]);
    B->setInsertPoint(B->createBlock("entry"));
    B->emitRegionEnter(MainRegion);
  }

  IRBuilder &builder() { return *B; }

  /// Loads g[Word], into a fresh register unless \p Dst names one:
  /// available at time 2 (address arithmetic, then the load) if nothing
  /// stored to the word later than that.
  ValueId load(int64_t Word, ValueId Dst = NoValue) {
    if (Dst == NoValue)
      return B->emitLoad(Type::Int, address(Word));
    Instruction I;
    I.Op = Opcode::Load;
    I.Ty = Type::Int;
    I.A = address(Word);
    I.Result = Dst;
    return B->emit(I).Result;
  }

  void store(int64_t Word, ValueId V) { B->emitStore(address(Word), V); }

  /// Appends Dst = Op(A, Bv), into a fresh register unless \p Dst names one
  /// (a register with several writers).
  Instruction &op(Opcode Op, ValueId A, ValueId Bv, ValueId Dst = NoValue) {
    Instruction I;
    I.Op = Op;
    I.Ty = Type::Int;
    I.A = A;
    I.B = Bv;
    I.Result = Dst == NoValue ? B->newValue(Type::Int) : Dst;
    return B->emit(I);
  }

  ValueId constant(int64_t V) { return B->emitConstInt(V); }
  ValueId callF() { return B->emitCall(FId, Type::Int, {}); }
  void enterNested() { B->emitRegionEnter(Nested); }
  void exitNested() { B->emitRegionExit(Nested); }

  /// Ends the current block with a branch to a new one, which the next
  /// instructions go to.
  void nextBlock() {
    BlockId Next = B->createBlock("next");
    B->emitBr(Next);
    B->setInsertPoint(Next);
  }

  /// Closes main() returning \p V, checks the module verifies, and returns
  /// main's InnerOps tally from a fresh decode.
  unsigned finish(ValueId V) {
    B->emitRegionExit(M.Functions[MainId].FuncRegion);
    B->emitRet(V);
    for (const std::string &P : verifyModule(M))
      ADD_FAILURE() << "verifier: " << P;
    ModuleTape Tape(M, std::vector<uint64_t>(M.Globals.size(), 0));
    return Tape.Funcs[MainId].InnerOps;
  }

  Module M;

private:
  FuncId MainId = NoFunc;
  FuncId FId = NoFunc;
  RegionId Nested = NoRegion;
  std::optional<IRBuilder> B;

  ValueId address(int64_t Word) {
    return B->emitPtrAdd(B->emitGlobalAddr(0), B->emitConstInt(Word));
  }

  RegionId addRegion(RegionKind Kind, FuncId Func, RegionId Parent) {
    StaticRegion R;
    R.Kind = Kind;
    R.Func = Func;
    R.Parent = Parent;
    R.Name = Kind == RegionKind::Loop ? "for" : M.Functions[Func].Name;
    R.File = "hand.ir";
    RegionId Id = M.addRegion(std::move(R));
    if (Parent != NoRegion)
      M.Regions[Parent].Children.push_back(Id);
    return Id;
  }
};

TEST(HcpaOracle, TreeFoldsTemporariesIntoTheirRoot) {
  // u = (x * y) - (y + y): two inner temporaries, one Tree event.
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  ValueId S = H.op(Opcode::Add, Y, Y).Result;
  ValueId U = H.op(Opcode::Sub, T, S).Result;
  EXPECT_EQ(H.finish(U), 2u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, TreeStopsAtALeafRedefinedBeforeItsRoot) {
  // t reads x; a load rewrites x's row; u = t - x. Folding t into u would
  // read the new x on t's path too, and the new x is later: its word was
  // stored at time 3.
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  H.store(2, H.op(Opcode::Mul, Y, Y).Result);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  H.load(2, /*Dst=*/X);
  ValueId U = H.op(Opcode::Sub, T, X).Result;
  EXPECT_EQ(H.finish(U), 0u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagFoldsAnOpThatRedefinesALeaf) {
  // t reads x; x = y + y redefines x inside the DAG, which writes no row;
  // u = t - x. Both fold into u, whose shape reads x's old row for t's
  // path (time 2, where the new x is 3).
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  H.op(Opcode::Add, Y, Y, /*Dst=*/X);
  ValueId U = H.op(Opcode::Sub, T, X).Result;
  EXPECT_EQ(H.finish(U), 2u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagFoldsAChainThroughOneRegister) {
  // x = x * 3 + 1; x = x + x / 7; y = x + i. x has three writers, and
  // every value but y's dies in the block, so the four ops before y fold
  // into it.
  HandBuilt H;
  ValueId X = H.load(0), I = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, H.constant(3)).Result;
  H.op(Opcode::Add, T, H.constant(1), /*Dst=*/X);
  ValueId D = H.op(Opcode::Div, X, H.constant(7)).Result;
  H.op(Opcode::Add, X, D, /*Dst=*/X);
  ValueId Y = H.op(Opcode::Add, X, I).Result;
  EXPECT_EQ(H.finish(Y), 4u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagKeepsAValueTwoRootsReadAsARoot) {
  // t = x * y feeds u = (t + x) * y, which a store reads, and v = t - y,
  // whose chain main returns. t's readers fold into two roots, so t roots
  // its own DAG; t + x still folds into u, and v's chain into its end,
  // which is the longest path.
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  ValueId S = H.op(Opcode::Add, T, X).Result;
  H.store(2, H.op(Opcode::Mul, S, Y).Result);
  ValueId V = H.op(Opcode::Sub, T, Y).Result;
  ValueId V2 = H.op(Opcode::Mul, V, V).Result;
  ValueId V3 = H.op(Opcode::Mul, V2, V).Result;
  ValueId V4 = H.op(Opcode::Add, V3, V2).Result;
  EXPECT_EQ(H.finish(V4), 4u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagKeepsAValueAStoreReadsAsARoot) {
  // t = x * y is read by a store and by u = t + x, which folds into
  // w = u + g[2]. The store reads t's row, and the load after it takes
  // t's time through memory into w, so t roots its own DAG.
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  H.store(2, T);
  ValueId U = H.op(Opcode::Add, T, X).Result;
  ValueId W = H.op(Opcode::Add, U, H.load(2)).Result;
  EXPECT_EQ(H.finish(W), 1u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagKeepsAValueLiveOutOfItsBlockAsARoot) {
  // x = x * 3; x = x + 1; g[1] = x * 5, then y = x * x; w = y * y + x in
  // the next block. The first write folds into the second, whose reader
  // in its block roots a DAG of its own; but the next block reads the
  // second write from x's row, so it stays a root. y's chain is the
  // longest path, so x's time there decides the critical path.
  HandBuilt H;
  ValueId X = H.load(0);
  H.op(Opcode::Mul, X, H.constant(3), /*Dst=*/X);
  H.op(Opcode::Add, X, H.constant(1), /*Dst=*/X);
  H.store(1, H.op(Opcode::Mul, X, H.constant(5)).Result);
  H.nextBlock();
  ValueId Y = H.op(Opcode::Mul, X, X).Result;
  ValueId Z = H.op(Opcode::Mul, Y, Y).Result;
  ValueId W = H.op(Opcode::Add, Z, X).Result;
  EXPECT_EQ(H.finish(W), 3u); // x * 3 into x + 1; y and y * y into w.
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagKeepsTheLastWriteOfALiveInRegisterAsARoot) {
  // The second block reads x before writing it: y = x + 1; x = y * 2;
  // z = x - 3. x may carry a value into a block, so its last write there
  // stays a root although only z reads it; y still folds into it.
  HandBuilt H;
  ValueId X = H.load(0);
  H.nextBlock();
  ValueId Y = H.op(Opcode::Add, X, H.constant(1)).Result;
  H.op(Opcode::Mul, Y, H.constant(2), /*Dst=*/X);
  ValueId Z = H.op(Opcode::Sub, X, H.constant(3)).Result;
  EXPECT_EQ(H.finish(Z), 1u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagStopsAtACallInsideAChain) {
  // x = x * 3; c = f(); x = x + c; y = x * 2. The first write must not
  // fold across the call; the second folds into y.
  HandBuilt H;
  ValueId X = H.load(0);
  H.op(Opcode::Mul, X, H.constant(3), /*Dst=*/X);
  ValueId C = H.callF();
  H.op(Opcode::Add, X, C, /*Dst=*/X);
  ValueId Y = H.op(Opcode::Mul, X, H.constant(2)).Result;
  EXPECT_EQ(H.finish(Y), 1u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, DagStopsAtARegionMarkerInsideAChain) {
  // x = x * 3 before a region, x = x + 1 and x = x * x inside it, and
  // y = x - 2 after it. Only x + 1 folds, into x * x inside the region.
  HandBuilt H;
  ValueId X = H.load(0);
  H.op(Opcode::Mul, X, H.constant(3), /*Dst=*/X);
  H.enterNested();
  H.op(Opcode::Add, X, H.constant(1), /*Dst=*/X);
  H.op(Opcode::Mul, X, X, /*Dst=*/X);
  H.exitNested();
  ValueId Y = H.op(Opcode::Sub, X, H.constant(2)).Result;
  EXPECT_EQ(H.finish(Y), 1u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, TreeRootMayOverwriteItsOwnLeaf) {
  // x = (x * x) + x inside a nested region whose previous instance left a
  // stale time in x's row: the root must read its leaves as they were
  // before its own write. The extra ops give the region enough work that
  // its critical path is not clamped to work.
  HandBuilt H;
  ValueId X = H.load(0);
  H.enterNested();
  H.builder().emitMove(Type::Int, H.load(1), X);
  H.exitNested();
  H.enterNested();
  ValueId T = H.op(Opcode::Mul, X, X).Result;
  H.op(Opcode::Add, T, X, /*Dst=*/X);
  ValueId K = H.builder().emitConstInt(3);
  for (int I = 0; I < 4; ++I)
    H.op(Opcode::Add, K, K);
  H.exitNested();
  EXPECT_EQ(H.finish(X), 1u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, TreeStopsAtABreakDepUpdate) {
  // t2 = (x * y) * 2 is the A operand of a reduction update, whose A
  // dependence is ignored: t2's time must not flow into s, but it still
  // counts toward the region's critical path.
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1), S = H.load(2);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  ValueId T2 = H.op(Opcode::Mul, T, H.builder().emitConstInt(2)).Result;
  H.op(Opcode::Add, T2, S, /*Dst=*/S).IsReductionUpdate = true;
  ValueId U = H.op(Opcode::Add, S, H.builder().emitConstInt(1)).Result;
  EXPECT_EQ(H.finish(U), 1u); // t into t2 only.
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, TreeStopsAtACall) {
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  ValueId C = H.callF();
  ValueId U = H.op(Opcode::Add, T, C).Result;
  EXPECT_EQ(H.finish(U), 0u);
  expectProfileMatchesOracle(H.M);
}

TEST(HcpaOracle, TreeStopsAtARegionMarker) {
  // t before a region entry read inside the region, and t2 inside it read
  // after its exit: folding either would move its work and time across
  // the region boundary.
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  H.enterNested();
  ValueId U = H.op(Opcode::Add, T, X).Result;
  ValueId T2 = H.op(Opcode::Mul, U, Y).Result;
  H.exitNested();
  ValueId V = H.op(Opcode::Sub, T2, X).Result;
  EXPECT_EQ(H.finish(V), 1u); // Only u into t2, inside the region.
  expectProfileMatchesOracle(H.M);
}

} // namespace

//===- tests/HcpaOracleTest.cpp - runtime vs. independent HCPA oracle -----===//
//
// Fixed programs on which the interpreter plus KremlinRuntime must agree
// bit for bit with the HCPA oracle (HcpaOracle.h): the shipped MiniC
// examples without recursion, the Figure 2-3 tracking program, the
// dead-frame-array regression, three paper-suite programs, and hand-built
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

TEST(HcpaOracle, MatchesRuntimeOnPaperSuitePrograms) {
  // Every suite program, at the default depth window and at a narrow one
  // that starts below the root, so levels fall outside it at both ends.
  KremlinConfig Narrow;
  Narrow.MinLevel = 1;
  Narrow.NumLevels = 2;
  for (const std::string &Name : paperBenchmarkNames()) {
    SCOPED_TRACE(Name);
    std::string Source = generatePaperBenchmark(Name).Source;
    expectProfileMatchesOracle(Source);
    expectProfileMatchesOracle(Source, Narrow);
  }
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

  /// Loads g[Word]: available at time 2 (address arithmetic, then the
  /// load).
  ValueId load(int64_t Word) {
    ValueId Addr =
        B->emitPtrAdd(B->emitGlobalAddr(0), B->emitConstInt(Word));
    return B->emitLoad(Type::Int, Addr);
  }

  /// Appends Dst = Op(A, Bv), into a fresh register unless \p Dst names one
  /// (a register with several writers).
  Instruction &op(Opcode Op, ValueId A, ValueId Bv, ValueId Dst = NoValue) {
    Instruction I;
    I.Op = Op;
    I.Ty = Type::Int;
    I.A = A;
    I.B = Bv;
    I.Result = Dst == NoValue ? B->newValue(Type::Int) : Dst;
    return B->emit(std::move(I));
  }

  ValueId callF() { return B->emitCall(FId, Type::Int, {}); }
  void enterNested() { B->emitRegionEnter(Nested); }
  void exitNested() { B->emitRegionExit(Nested); }

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
  // t reads x; x is rewritten; u = t - x. Folding t into u would read the
  // new x on t's path too.
  HandBuilt H;
  ValueId X = H.load(0), Y = H.load(1);
  ValueId T = H.op(Opcode::Mul, X, Y).Result;
  H.op(Opcode::Add, Y, Y, /*Dst=*/X);
  ValueId U = H.op(Opcode::Sub, T, X).Result;
  EXPECT_EQ(H.finish(U), 0u);
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

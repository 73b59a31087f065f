//===- tests/StaticDepTest.cpp - dataflow + static loop dependence --------===//
//
// Covers the static-analysis subsystem: loop-carried scalar dependences,
// the ZIV/SIV loop classifier, the --verify-ir instrumentation gate, the
// lint pipeline, the front end's output pinned at scale, and the soundness
// cross-check against the dynamic profile on the paper suite.
//
//===----------------------------------------------------------------------===//

#include "analysis/DataFlow.h"
#include "analysis/StaticDependence.h"
#include "driver/KremlinDriver.h"
#include "ir/IRBuilder.h"
#include "suite/PaperSuite.h"
#include "suite/SourceGenerator.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <thread>

using namespace kremlin;
using namespace kremlin::test;

namespace {

/// The verdict of the single loop in function \p Func.
LoopVerdict verdictIn(const StaticAnalysisResult &R, const Module &M,
                      const std::string &Func) {
  for (const StaticLoopResult &L : R.Loops)
    if (L.Func != NoFunc && M.Functions[L.Func].Name == Func)
      return L.Verdict;
  ADD_FAILURE() << "no analyzed loop in " << Func;
  return LoopVerdict::Unknown;
}

/// Compile + instrument + analyze, asserting exactly one loop, and return
/// its full result.
StaticLoopResult analyzeSingleLoop(const std::string &Source) {
  std::unique_ptr<Module> M = compileOrDie(Source);
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  EXPECT_EQ(R.Loops.size(), 1u);
  return R.Loops.empty() ? StaticLoopResult() : R.Loops.front();
}

// --- Loop-carried scalar dependences ----------------------------------------

/// The carried scalar dependences of loop \p LoopIdx of \p F, computed the
/// way the analyzer does.
std::vector<ScalarCarriedDep> carriedDeps(const Function &F, size_t LoopIdx) {
  FunctionAnalysis FA = buildFunctionAnalysis(F);
  if (LoopIdx >= FA.LI.Loops.size()) {
    ADD_FAILURE() << "no loop #" << LoopIdx;
    return {};
  }
  LoopScratch Scratch(F);
  return findLoopCarriedScalarDeps(
      LoopView(F, FA, FA.LI.Loops[LoopIdx], Scratch));
}

/// The carried scalar dependences of the only loop of \p M's first
/// function.
std::vector<ScalarCarriedDep> firstLoopCarriedDeps(const Module &M) {
  EXPECT_EQ(buildFunctionAnalysis(M.Functions[0]).LI.Loops.size(), 1u);
  return carriedDeps(M.Functions[0], 0);
}

/// Emits `X = Move C` at the end of \p BB and returns its definition site.
DefSite emitRedef(IRBuilder &B, BlockId BB, ValueId X, int64_t C) {
  B.setInsertPoint(BB);
  B.emitMove(Type::Int, B.emitConstInt(C), X);
  return {BB, static_cast<unsigned>(B.function().Blocks[BB].Insts.size() - 1),
          X};
}

/// Marks the definitions in \p Marked as reduction updates, unmarks the
/// rest of \p All, and returns the single carried dependence of loop
/// \p LoopIdx of \p F. A dependence is breakable exactly when each of its
/// carried sources is marked, so the marks probe which definitions are
/// sources.
ScalarCarriedDep onlyCarriedDep(Function &F, size_t LoopIdx,
                                std::initializer_list<DefSite> All,
                                std::initializer_list<DefSite> Marked) {
  for (const DefSite &D : All)
    F.Blocks[D.BB].Insts[D.Idx].IsReductionUpdate = false;
  for (const DefSite &D : Marked)
    F.Blocks[D.BB].Insts[D.Idx].IsReductionUpdate = true;
  std::vector<ScalarCarriedDep> Deps = carriedDeps(F, LoopIdx);
  EXPECT_EQ(Deps.size(), 1u);
  return Deps.empty() ? ScalarCarriedDep() : Deps.front();
}

bool sameSite(const DefSite &A, const DefSite &B) {
  return A.BB == B.BB && A.Idx == B.Idx;
}

/// A loop whose body is a diamond. The header reads x; x is defined
/// before the loop, at the top of the body (redefined by both arms), twice
/// in the then-arm and once in the else-arm:
///
///   entry:  x = 5                  -> header
///   header: y = x + c              -> body, exit
///   body:   x = 9                  -> then, else
///   then:   x = 1; x = 3           -> latch
///   else:   x = 2                  -> latch
///   latch:                         -> header
///   exit:   ret x
struct LoopDiamond {
  Module M;
  FuncId Id = NoFunc;
  BlockId Header = NoBlock;
  DefSite Top, ThenFirst, ThenLast, Else;

  LoopDiamond() {
    Function Fn;
    Fn.Name = "diamond";
    Fn.ReturnTy = Type::Int;
    Id = M.addFunction(std::move(Fn));
    IRBuilder B(M, M.Functions[Id]);
    BlockId Entry = B.createBlock("entry");
    Header = B.createBlock("header");
    BlockId Body = B.createBlock("body");
    BlockId Then = B.createBlock("then");
    BlockId ElseBB = B.createBlock("else");
    BlockId Latch = B.createBlock("latch");
    BlockId Exit = B.createBlock("exit");
    B.setInsertPoint(Entry);
    ValueId C = B.emitConstInt(1);
    ValueId X = B.emitConstInt(5);
    B.emitBr(Header);
    B.setInsertPoint(Header);
    B.emitBinary(Opcode::Add, Type::Int, X, C);
    B.emitCondBr(C, Body, Exit);
    Top = emitRedef(B, Body, X, 9);
    B.emitCondBr(C, Then, ElseBB);
    ThenFirst = emitRedef(B, Then, X, 1);
    ThenLast = emitRedef(B, Then, X, 3);
    B.emitBr(Latch);
    Else = emitRedef(B, ElseBB, X, 2);
    B.emitBr(Latch);
    B.setInsertPoint(Latch);
    B.emitBr(Header);
    B.setInsertPoint(Exit);
    B.emitRet(X);
  }

  /// x's dependence into the header, with exactly \p Marked marked.
  ScalarCarriedDep carriedX(std::initializer_list<DefSite> Marked) {
    ScalarCarriedDep Dep = onlyCarriedDep(
        M.Functions[Id], 0, {Top, ThenFirst, ThenLast, Else}, Marked);
    EXPECT_EQ(Dep.Use.BB, Header);
    return Dep;
  }
};

TEST(ScalarCarriedDeps, BothArmDefsAreCarriedSources) {
  // Each arm's last definition reaches the latch through its own arm:
  // leaving either one unmarked leaves the dependence unbreakable.
  LoopDiamond D;
  EXPECT_FALSE(D.carriedX({D.ThenLast}).Breakable);
  EXPECT_FALSE(D.carriedX({D.Else}).Breakable);
  ScalarCarriedDep Dep = D.carriedX({D.ThenLast, D.Else});
  EXPECT_TRUE(Dep.Breakable);
  EXPECT_FALSE(Dep.Certain); // Two sources.
}

TEST(ScalarCarriedDeps, ArmDefsKillTheBodyEntryDef) {
  // Both arms redefine x, so the body's first definition is killed on
  // every path to the latch: it is no source, marked or not.
  LoopDiamond D;
  ScalarCarriedDep Dep = D.carriedX({D.ThenFirst, D.ThenLast, D.Else});
  EXPECT_TRUE(Dep.Breakable);
  EXPECT_FALSE(sameSite(Dep.Def, D.Top));
}

TEST(ScalarCarriedDeps, LaterDefSupersedesEarlierInBlock) {
  // The then-arm's second definition kills its first within the block:
  // the first is no source, and the second is the representative one.
  LoopDiamond D;
  ScalarCarriedDep Dep = D.carriedX({D.Top, D.ThenLast, D.Else});
  EXPECT_TRUE(Dep.Breakable);
  EXPECT_TRUE(sameSite(Dep.Def, D.ThenLast));
}

TEST(ScalarCarriedDeps, SideExitPathIsNotCarriedByInnerLoop) {
  // A shape MiniC cannot produce: the inner loop's body has a second exit,
  // to the outer latch. x's definition in `ib` reaches the inner latch
  // without a kill only by leaving the inner loop and re-entering through
  // the outer one, which is no path of the inner loop's iterations:
  //
  //   entry: x = 0                 -> oh
  //   oh:                          -> ih, exit     (outer header)
  //   ih:    y = x + c             -> is, ol       (inner header)
  //   is:                          -> ib, ic
  //   ib:    x = 7                 -> ik, ol       (the side exit)
  //   ik:    x = 8                 -> il
  //   ic:                          -> il
  //   il:                          -> ih           (inner latch)
  //   ol:                          -> oh           (outer latch)
  //   exit:  ret x
  Module M;
  Function Fn;
  Fn.Name = "side_exit";
  Fn.ReturnTy = Type::Int;
  FuncId Id = M.addFunction(std::move(Fn));
  IRBuilder B(M, M.Functions[Id]);
  BlockId Entry = B.createBlock("entry"), OH = B.createBlock("oh"),
          IH = B.createBlock("ih"), IS = B.createBlock("is"),
          IB = B.createBlock("ib"), IK = B.createBlock("ik"),
          IC = B.createBlock("ic"), IL = B.createBlock("il"),
          OL = B.createBlock("ol"), Exit = B.createBlock("exit");
  B.setInsertPoint(Entry);
  ValueId C = B.emitConstInt(1);
  ValueId X = B.emitConstInt(0);
  B.emitBr(OH);
  B.setInsertPoint(OH);
  B.emitCondBr(C, IH, Exit);
  B.setInsertPoint(IH);
  B.emitBinary(Opcode::Add, Type::Int, X, C);
  B.emitCondBr(C, IS, OL);
  B.setInsertPoint(IS);
  B.emitCondBr(C, IB, IC);
  DefSite SideExitDef = emitRedef(B, IB, X, 7);
  B.emitCondBr(C, IK, OL);
  DefSite KillDef = emitRedef(B, IK, X, 8);
  B.emitBr(IL);
  B.setInsertPoint(IC);
  B.emitBr(IL);
  B.setInsertPoint(IL);
  B.emitBr(IH);
  B.setInsertPoint(OL);
  B.emitBr(OH);
  B.setInsertPoint(Exit);
  B.emitRet(X);

  Function &F = M.Functions[Id];
  FunctionAnalysis FA = buildFunctionAnalysis(F);
  ASSERT_EQ(FA.LI.Loops.size(), 2u);
  ASSERT_EQ(FA.LI.Loops[1].Header, IH);
  ASSERT_EQ(FA.LI.Loops[1].Latches, std::vector<BlockId>{IL});
  ScalarCarriedDep Dep =
      onlyCarriedDep(F, 1, {SideExitDef, KillDef}, {KillDef});
  EXPECT_EQ(Dep.Use.BB, IH);
  EXPECT_TRUE(sameSite(Dep.Def, KillDef));
  EXPECT_TRUE(Dep.Breakable);
}

TEST(ScalarCarriedDeps, AccumulatorIsCarriedAndBreakable) {
  // `s = s + i` lowers to a marked reduction update: the carried scalar
  // dependence exists but is breakable.
  std::unique_ptr<Module> M = compileOrDie(
      "int main() { int s = 0;"
      " for (int i = 0; i < 8; i = i + 1) { s = s + i; }"
      " return s; }");
  instrumentModule(*M);
  std::vector<ScalarCarriedDep> Deps = firstLoopCarriedDeps(*M);
  ASSERT_FALSE(Deps.empty());
  for (const ScalarCarriedDep &Dep : Deps)
    EXPECT_TRUE(Dep.Breakable) << "value v" << Dep.Value;
}

TEST(ScalarCarriedDeps, NonReductionRecurrenceIsCertain) {
  // `s = s * 2 + 1` is not a recognizable reduction: the carried
  // dependence must surface as certain and non-breakable.
  std::unique_ptr<Module> M = compileOrDie(
      "int main() { int s = 1;"
      " for (int i = 0; i < 8; i = i + 1) { s = s * 2 + 1; }"
      " return s; }");
  instrumentModule(*M);
  std::vector<ScalarCarriedDep> Deps = firstLoopCarriedDeps(*M);
  bool SawCertainUnbreakable = false;
  for (const ScalarCarriedDep &Dep : Deps)
    SawCertainUnbreakable |= Dep.Certain && !Dep.Breakable;
  EXPECT_TRUE(SawCertainUnbreakable);
}

TEST(ScalarCarriedDeps, SameIterationDefinitionKillsTheCarriedToken) {
  // t is written at the top of every iteration and read again in a later
  // block of the same iteration, which can never see the previous
  // iteration's t: only the induction variable's dependence is carried.
  const char *Source = "int a[64]; int b[64];"
                       "int main() {"
                       " for (int i = 0; i < 64; i = i + 1) {"
                       "   int t = a[i];"
                       "   if (t > 0) { b[i] = t; }"
                       " }"
                       " return b[3]; }";
  std::unique_ptr<Module> M = compileOrDie(Source);
  instrumentModule(*M);
  std::vector<ScalarCarriedDep> Deps = firstLoopCarriedDeps(*M);
  ASSERT_FALSE(Deps.empty());
  for (const ScalarCarriedDep &Dep : Deps)
    EXPECT_TRUE(Dep.Breakable) << "value v" << Dep.Value;
  EXPECT_EQ(analyzeSingleLoop(Source).Verdict, LoopVerdict::ProvablyDoall);
}

// --- Loop verdicts ----------------------------------------------------------

TEST(StaticDependence, SerialArrayRecurrence) {
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() { a[0] = 1;"
      " for (int i = 0; i < 63; i = i + 1) { a[i + 1] = a[i] + 1; }"
      " return a[63]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablySerial);
  // The diagnostic cites the dependence with its source line.
  EXPECT_NE(L.Reason.find("line"), std::string::npos) << L.Reason;
  EXPECT_GT(L.DepSrcLine, 0u);
  EXPECT_GT(L.DepDstLine, 0u);
}

TEST(StaticDependence, IndependentCellsAreDoall) {
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() {"
      " for (int i = 0; i < 64; i = i + 1) { a[i] = i * 2; }"
      " return a[5]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyDoall);
}

TEST(StaticDependence, ReductionRecurrenceIsProvablyReduction) {
  // HCPA ignores reduction dependences (paper §4.1); the static verdict
  // says so explicitly: parallelizable, but only with a reduction clause.
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() { int s = 0;"
      " for (int i = 0; i < 64; i = i + 1) { s = s + a[i]; }"
      " return s; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyReduction);
  EXPECT_EQ(L.ReductionOps, "+");
  EXPECT_EQ(L.Reductions, 1u);
  EXPECT_FALSE(L.MinMaxReduction);
}

TEST(StaticDependence, MaxIdiomIsProvablyReduction) {
  // The if-guarded replacement is a running max: associative and
  // commutative, so parallelizable with reduction(max) — even though
  // HCPA's runtime rule only breaks +/* accumulators and will *measure*
  // this loop as serial (hence the MinMaxReduction flag for consumers
  // cross-checking against the profile).
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() { int best = 0;"
      " for (int i = 0; i < 64; i = i + 1) {"
      "   if (a[i] > best) { best = a[i]; }"
      " }"
      " return best; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyReduction);
  EXPECT_EQ(L.ReductionOps, "max");
  EXPECT_TRUE(L.MinMaxReduction);
}

TEST(StaticDependence, MinIdiomIsProvablyReduction) {
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() { int low = 9999;"
      " for (int i = 0; i < 64; i = i + 1) {"
      "   if (a[i] < low) { low = a[i]; }"
      " }"
      " return low; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyReduction);
  EXPECT_EQ(L.ReductionOps, "min");
  EXPECT_TRUE(L.MinMaxReduction);
}

TEST(StaticDependence, SameCellAccumulationIsReduction) {
  // A memory reduction: every iteration rewrites a[0] = a[0] + b[i].
  StaticLoopResult L = analyzeSingleLoop(
      "int a[4]; int b[64];"
      "int main() {"
      " for (int i = 0; i < 64; i = i + 1) { a[0] = a[0] + b[i]; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyReduction);
  EXPECT_EQ(L.ReductionOps, "+");
}

TEST(StaticDependence, IndirectSubscriptIsUnknown) {
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64]; int b[64];"
      "int main() {"
      " for (int i = 0; i < 64; i = i + 1) { a[b[i]] = i; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::Unknown);
}

TEST(StaticDependence, CallInLoopIsUnknown) {
  std::unique_ptr<Module> M = compileOrDie(
      "int g[4];"
      "int bump() { g[0] = g[0] + 1; return g[0]; }"
      "int main() { int s = 0;"
      " for (int i = 0; i < 8; i = i + 1) { s = s + bump(); }"
      " return s; }");
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  // bump() both reads and writes g[]: successive calls may carry a flow
  // dependence through g[0], so the summary cannot clear the loop.
  EXPECT_EQ(verdictIn(R, *M, "main"), LoopVerdict::Unknown);
}

TEST(StaticDependence, PureRecursiveCalleeKeepsLoopDoall) {
  // fib sits on a call-graph cycle; the SCC fixpoint still saturates to a
  // pure summary, so the tabulation loop gets a real doall verdict.
  std::unique_ptr<Module> M = compileOrDie(
      "int r[16];"
      "int fib(int n) {"
      " if (n < 2) { return n; }"
      " return fib(n - 1) + fib(n - 2); }"
      "int main() {"
      " for (int i = 0; i < 16; i = i + 1) { r[i] = fib(i); }"
      " return r[0]; }");
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  EXPECT_EQ(verdictIn(R, *M, "main"), LoopVerdict::ProvablyDoall);
  const ModRefSummary *S = R.ModRef.of(M->findFunction("fib"));
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Recursive);
  EXPECT_TRUE(S->isPure());
  ASSERT_EQ(R.Loops.size(), 1u);
  EXPECT_EQ(R.Loops[0].Callees, std::vector<std::string>{"fib"});
  EXPECT_EQ(R.Loops[0].CallSites, 1u);
  EXPECT_EQ(R.Loops[0].CallsSummarized, 1u);
}

TEST(StaticDependence, CalleeWritingDisjointGlobalKeepsLoopDoall) {
  // touch() only writes b[]; nothing in the loop (or the callee) reads
  // b[], and a write-write dependence is breakable, so the loop is doall.
  std::unique_ptr<Module> M = compileOrDie(
      "int a[8]; int b[8];"
      "void touch() { b[0] = 7; }"
      "int main() {"
      " for (int i = 0; i < 8; i = i + 1) { a[i] = i; touch(); }"
      " return a[0]; }");
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  EXPECT_EQ(verdictIn(R, *M, "main"), LoopVerdict::ProvablyDoall);
}

TEST(StaticDependence, ParamWritesResolveToCallSiteArguments) {
  // put() writes through its array parameter. Passing b keeps the loop
  // independent; passing a makes the callee write may-alias the loop's
  // own a[i] load, which the tests cannot refute.
  std::unique_ptr<Module> M = compileOrDie(
      "int a[8]; int b[8]; int s[8]; int t[8];"
      "void put(int p[], int v) { p[0] = v; }"
      "int safe() {"
      " for (int i = 0; i < 8; i = i + 1) { s[i] = a[i]; put(b, i); }"
      " return s[0]; }"
      "int clobbers() {"
      " for (int i = 0; i < 8; i = i + 1) { t[i] = a[i]; put(a, i); }"
      " return t[0]; }"
      "int main() { return safe() + clobbers(); }");
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  EXPECT_EQ(verdictIn(R, *M, "safe"), LoopVerdict::ProvablyDoall);
  EXPECT_EQ(verdictIn(R, *M, "clobbers"), LoopVerdict::Unknown);
  const ModRefSummary *S = R.ModRef.of(M->findFunction("put"));
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->writesParam(0));
  EXPECT_FALSE(S->readsParam(0));
}

TEST(StaticDependence, OpaqueCalleesAllNamedSortedInReason) {
  // Hand-built IR: each callee stores through a register with two
  // definitions, which the root resolver cannot attribute — Opaque. The
  // loop's reason must name every distinct callee, sorted and deduped.
  Module M;
  GlobalArray G;
  G.Name = "g";
  G.SizeWords = 4;
  GlobalId GId = M.addGlobal(std::move(G));
  auto MakeOpaque = [&](const char *Name) {
    Function F;
    F.Name = Name;
    F.ReturnTy = Type::Int;
    FuncId Id = M.addFunction(std::move(F));
    IRBuilder B(M, M.Functions[Id]);
    BlockId B0 = B.createBlock("entry");
    BlockId B1 = B.createBlock("then");
    BlockId B2 = B.createBlock("else");
    BlockId B3 = B.createBlock("join");
    B.setInsertPoint(B0);
    ValueId Addr = B.emitGlobalAddr(GId);
    B.emitCondBr(B.emitConstInt(1), B1, B2);
    B.setInsertPoint(B1);
    B.emitMove(Type::Int, B.emitGlobalAddr(GId), Addr);
    B.emitBr(B3);
    B.setInsertPoint(B2);
    B.emitMove(Type::Int, B.emitGlobalAddr(GId), Addr);
    B.emitBr(B3);
    B.setInsertPoint(B3);
    B.emitStore(Addr, B.emitConstInt(1));
    B.emitRet(B.emitConstInt(0));
    return Id;
  };
  FuncId Zeta = MakeOpaque("zeta");
  FuncId Alpha = MakeOpaque("alpha");
  Function F;
  F.Name = "caller";
  F.ReturnTy = Type::Int;
  FuncId Id = M.addFunction(std::move(F));
  IRBuilder B(M, M.Functions[Id]);
  BlockId Entry = B.createBlock("entry");
  BlockId Header = B.createBlock("header");
  BlockId Body = B.createBlock("body");
  BlockId Exit = B.createBlock("exit");
  B.setInsertPoint(Entry);
  ValueId I = B.emitMove(Type::Int, B.emitConstInt(0));
  B.emitBr(Header);
  B.setInsertPoint(Header);
  ValueId Cond =
      B.emitBinary(Opcode::CmpLT, Type::Int, I, B.emitConstInt(8));
  B.emitCondBr(Cond, Body, Exit);
  B.setInsertPoint(Body);
  // zeta twice (dedup) and alpha once, in reverse-alphabetical call order
  // (sorting must still put alpha first).
  B.emitCall(Zeta, Type::Int, {});
  B.emitCall(Alpha, Type::Int, {});
  B.emitCall(Zeta, Type::Int, {});
  B.emitMove(Type::Int, B.emitBinary(Opcode::Add, Type::Int, I,
                                     B.emitConstInt(1)),
             I);
  B.emitBr(Header);
  B.setInsertPoint(Exit);
  B.emitRet(B.emitConstInt(0));
  StaticAnalysisResult R = analyzeModuleDependence(M);
  ASSERT_EQ(R.Loops.size(), 1u);
  const StaticLoopResult &L = R.Loops.front();
  EXPECT_EQ(L.Verdict, LoopVerdict::Unknown);
  EXPECT_EQ(L.Callees, (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_NE(L.Reason.find("calls alpha(), zeta()"), std::string::npos)
      << L.Reason;
  EXPECT_EQ(L.CallSites, 3u);
  EXPECT_EQ(L.CallsSummarized, 0u);
}

TEST(StaticDependence, GcdProvesInterleavedStridesIndependent) {
  // Store subscript 4i+1 is odd, load subscript 2i is even:
  // gcd(4,2) = 2 does not divide 1, so the cells never coincide.
  StaticLoopResult L = analyzeSingleLoop(
      "int a[70];"
      "int main() {"
      " for (int i = 0; i < 16; i = i + 1) { a[4 * i + 1] = a[2 * i] + 1; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyDoall);
}

TEST(StaticDependence, BanerjeeBoundsProveDisjointRangesIndependent) {
  // Store range [50,59] and load range [0,18] cannot meet; the GCD test
  // is inconclusive (gcd(1,2) = 1) but the Banerjee bounds over the
  // trip-counted iteration space refute every solution.
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() {"
      " for (int i = 0; i < 10; i = i + 1) { a[i + 50] = a[2 * i] + 1; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyDoall);
}

TEST(StaticDependence, BanerjeeDirectionRefinementBreaksAntiOnlyPairs) {
  // 2*i1 == i2 + 4 has solutions, but only with i1 >= i2: the later
  // iteration writes what an *earlier* one read (anti — breakable by
  // pre-copying), or the same iteration (loop-independent). No carried
  // flow, so the '<'-direction Banerjee window proves the loop doall.
  StaticLoopResult L = analyzeSingleLoop(
      "int a[16];"
      "int main() {"
      " for (int i = 0; i < 5; i = i + 1) { a[2 * i] = a[i + 4] + 1; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyDoall);
}

TEST(StaticDependence, CrossStrideWithoutTripCountIsUnknown) {
  // Banerjee needs iteration bounds; a symbolic loop bound leaves the
  // cross-stride pair undecided.
  std::unique_ptr<Module> M = compileOrDie(
      "int a[64];"
      "int f(int n) {"
      " for (int i = 0; i < n; i = i + 1) { a[2 * i] = a[i + 4] + 1; }"
      " return a[0]; }"
      "int main() { return f(5); }");
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  EXPECT_EQ(verdictIn(R, *M, "f"), LoopVerdict::Unknown);
}

TEST(StaticDependence, ZivDistinctCellsAreDoall) {
  // Stores hit cell 0 only (an output dependence — breakable by
  // privatization); the load reads cell 1. No carried flow.
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() {"
      " for (int i = 0; i < 8; i = i + 1) { a[0] = a[1] + 1; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyDoall);
}

TEST(StaticDependence, ZivSameCellRecurrenceIsSerial) {
  // Every iteration reads the cell the previous one wrote, and `* 2 + 1`
  // is not a reduction the runtime could break.
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() { a[0] = 1;"
      " for (int i = 0; i < 8; i = i + 1) { a[0] = a[0] * 2 + 1; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablySerial);
}

TEST(StaticDependence, NegativeDistanceIsAntiHenceDoall) {
  // a[i] = a[i+1] reads ahead: an anti dependence, breakable by
  // pre-copying, so no carried flow exists.
  StaticLoopResult L = analyzeSingleLoop(
      "int a[64];"
      "int main() {"
      " for (int i = 0; i < 63; i = i + 1) { a[i] = a[i + 1] + 1; }"
      " return a[0]; }");
  EXPECT_EQ(L.Verdict, LoopVerdict::ProvablyDoall);
}

TEST(StaticDependence, OuterLoopOfNestIsUnknown) {
  std::unique_ptr<Module> M = compileOrDie(
      "int a[64];"
      "int main() {"
      " for (int i = 0; i < 8; i = i + 1) {"
      "   for (int j = 0; j < 8; j = j + 1) { a[i * 8 + j] = i + j; }"
      " }"
      " return a[0]; }");
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  ASSERT_EQ(R.Loops.size(), 2u);
  unsigned NumUnknown = 0, NumDoall = 0;
  for (const StaticLoopResult &L : R.Loops) {
    NumUnknown += L.Verdict == LoopVerdict::Unknown;
    NumDoall += L.Verdict == LoopVerdict::ProvablyDoall;
  }
  // The outer loop contains a nested loop -> Unknown; the inner loop has
  // an invariant i-term in its subscript and stays provable.
  EXPECT_EQ(NumUnknown, 1u);
  EXPECT_EQ(NumDoall, 1u);
}

TEST(StaticDependence, VerdictCountsAndRegionMap) {
  std::unique_ptr<Module> M = compileOrDie(
      "int a[64];"
      "int f() { a[0] = 1;"
      " for (int i = 0; i < 63; i = i + 1) { a[i + 1] = a[i] + 1; }"
      " return a[63]; }"
      "int main() {"
      " for (int i = 0; i < 64; i = i + 1) { a[i] = i; }"
      " return f(); }");
  instrumentModule(*M);
  StaticAnalysisResult R = analyzeModuleDependence(*M);
  EXPECT_EQ(R.Loops.size(), 2u);
  EXPECT_EQ(R.NumSerial, 1u);
  EXPECT_EQ(R.NumDoall, 1u);
  EXPECT_EQ(R.NumDoall + R.NumReduction + R.NumSerial + R.NumUnknown,
            R.Loops.size());
  // Every loop lowered from source carries its Loop region, and the
  // planner-facing map covers exactly those.
  std::map<RegionId, LoopVerdict> Verdicts = R.verdictMap();
  EXPECT_EQ(Verdicts.size(), 2u);
  for (const StaticLoopResult &L : R.Loops) {
    ASSERT_NE(L.Region, NoRegion);
    ASSERT_EQ(Verdicts.count(L.Region), 1u);
    EXPECT_EQ(Verdicts.at(L.Region), L.Verdict);
  }
}

// --- Planner integration ----------------------------------------------------

TEST(StaticDependence, PlannerDemotesProvablySerialRegion) {
  // A serial recurrence that HCPA *measures* as parallel: the loop body
  // writes a[i+1] from a[i], but the profile's verdict is input-based.
  // Feed the planner a fake high-SP profile via replan on the real one —
  // instead, simplest: run the driver and assert the serial region never
  // appears in the plan even with thresholds dropped to zero.
  KremlinDriver Driver;
  Driver.options().Planner.MinSelfParallelism = 0.0;
  Driver.options().Planner.MinDoallSpeedupPct = 0.0;
  DriverResult Result = Driver.runOnSource(
      "int a[256];"
      "int main() { a[0] = 1;"
      " for (int i = 0; i < 255; i = i + 1) { a[i + 1] = a[i] + 3; }"
      " return a[255]; }",
      "serial.c");
  ASSERT_TRUE(Result.succeeded());
  ASSERT_EQ(Result.Static.NumSerial, 1u);
  RegionId SerialRegion = NoRegion;
  for (const StaticLoopResult &L : Result.Static.Loops)
    if (L.Verdict == LoopVerdict::ProvablySerial)
      SerialRegion = L.Region;
  ASSERT_NE(SerialRegion, NoRegion);
  EXPECT_FALSE(Result.ThePlan.contains(SerialRegion));
}

TEST(StaticDependence, PlanItemsCarryStaticVerdict) {
  KremlinDriver Driver;
  DriverResult Result = Driver.runOnSource(
      "int a[512];"
      "int main() {"
      " for (int i = 0; i < 512; i = i + 1) { a[i] = i * 3; }"
      " return a[7]; }",
      "doall.c");
  ASSERT_TRUE(Result.succeeded());
  ASSERT_FALSE(Result.ThePlan.Items.empty());
  EXPECT_EQ(Result.ThePlan.Items.front().Static, LoopVerdict::ProvablyDoall);
}

// --- Driver integration -----------------------------------------------------

TEST(Lint, StaticOnlyPipelineProducesVerdictsWithoutExecuting) {
  KremlinDriver Driver;
  DriverResult Result = Driver.lintSource(
      "int acc[128];"
      "int main() { acc[0] = 2;"
      " for (int i = 0; i < 127; i = i + 1) { acc[i + 1] = acc[i] + 3; }"
      " return acc[127]; }",
      "lint.c");
  ASSERT_TRUE(Result.succeeded());
  EXPECT_GE(Result.Static.NumSerial, 1u);
  // No execution happened: the execute stage never ran.
  EXPECT_EQ(Result.Exec.DynInstructions, 0u);
  for (const auto &[Stage, Ms] : Result.StageMs)
    EXPECT_NE(Stage, "execute");
  EXPECT_EQ(Result.Profile, nullptr);
}

TEST(Lint, AnalyzeStageRunsEvenWhenStaticAnalysisDisabled) {
  KremlinDriver Driver;
  Driver.options().StaticAnalysis = false;
  DriverResult Result = Driver.lintSource(
      "int main() { int s = 0;"
      " for (int i = 0; i < 4; i = i + 1) { s = s + i; }"
      " return s; }",
      "lint2.c");
  ASSERT_TRUE(Result.succeeded());
  EXPECT_EQ(Result.Static.Loops.size(), 1u);
}

TEST(VerifyIR, CorruptingModuleFailsNamingThePass) {
  // An out-of-range operand register escapes the frontend verifier only if
  // we inject it after verify; here we hand instrumentModule a broken
  // module directly and check the gate names the first pass.
  Module M;
  Function F;
  F.Name = "broken";
  F.ReturnTy = Type::Void;
  FuncId Id = M.addFunction(std::move(F));
  IRBuilder B(M, M.Functions[Id]);
  BlockId B0 = B.createBlock("entry");
  B.setInsertPoint(B0);
  B.emitRet();
  // Corrupt: an instruction reading a register beyond NumValues.
  Instruction Bad;
  Bad.Op = Opcode::Neg;
  Bad.Ty = Type::Int;
  Bad.Result = 0;
  Bad.A = 12345;
  M.Functions[Id].Blocks[B0].Insts.insert(
      M.Functions[Id].Blocks[B0].Insts.begin(), Bad);
  M.Functions[Id].NumValues = 1;

  InstrumentOptions Opts;
  Opts.VerifyAfterEachPass = true;
  InstrumentResult R = instrumentModule(M, Opts);
  ASSERT_FALSE(R.Err.ok());
  EXPECT_EQ(R.Err.code(), ErrorCode::Internal);
  EXPECT_NE(R.Err.message().find("control-dependence"), std::string::npos)
      << R.Err.message();
}

TEST(VerifyIR, CleanPipelinePassesWithGateEnabled) {
  KremlinDriver Driver;
  Driver.options().VerifyIR = true;
  DriverResult Result = Driver.runOnSource(
      "int main() { int s = 0;"
      " for (int i = 0; i < 4; i = i + 1) { s = s + i; }"
      " return s; }",
      "clean.c");
  EXPECT_TRUE(Result.succeeded()) << Result.Err.toString();
}

TEST(AnalyzeStage, FaultInjectionFailsThePipelineCleanly) {
  ASSERT_TRUE(fault::configure("stage:analyze"));
  KremlinDriver Driver;
  DriverResult Result = Driver.runOnSource(
      "int main() { return 0; }", "faulted.c");
  ASSERT_TRUE(fault::configure(""));
  EXPECT_FALSE(Result.succeeded());
  EXPECT_EQ(Result.failedStage(), "analyze");
  EXPECT_EQ(Result.Err.code(), ErrorCode::FaultInjected);
}

// --- Front-end output at scale ----------------------------------------------

/// One line pinning what the front end decides about one program: loop and
/// per-verdict counts, induction/reduction mark counts, and an fnv1a hash
/// over every loop's verdict canon (region, function, header, verdict,
/// reason) and every instruction's marks, operands and merge block after
/// instrument.
std::string frontEndFingerprint(const std::string &Name,
                                const std::string &Source) {
  KremlinDriver Driver;
  DriverResult R = Driver.lintSource(Source, Name);
  EXPECT_TRUE(R.succeeded()) << Name << ": " << R.Err.toString();
  if (!R.succeeded())
    return Name + " lint failed";
  uint64_t Hash = 0xcbf29ce484222325ULL;
  auto Mix = [&Hash](const std::string &Text) {
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 0x100000001b3ULL;
    }
  };
  for (const StaticLoopResult &L : R.Static.Loops)
    Mix(std::to_string(L.Region) + ' ' + std::to_string(L.Func) + ' ' +
        std::to_string(L.Header) + ' ' +
        std::to_string(static_cast<int>(L.Verdict)) + ' ' + L.Reason + '\n');
  unsigned Inductions = 0, Reductions = 0;
  for (const Function &F : R.M->Functions)
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &I : B.Insts) {
        Inductions += I.IsInductionUpdate;
        Reductions += I.IsReductionUpdate;
        Mix(std::to_string(I.IsInductionUpdate) +
            std::to_string(I.IsReductionUpdate) + ' ' + std::to_string(I.A) +
            ' ' + std::to_string(I.B) + ' ' + std::to_string(I.MergeBlock) +
            '\n');
      }
  const StaticAnalysisResult &S = R.Static;
  return formatString("%s loops=%zu doall=%u reduction=%u serial=%u "
                      "unknown=%u induction_marks=%u reduction_marks=%u "
                      "hash=%016llx",
                      Name.c_str(), S.Loops.size(), S.NumDoall,
                      S.NumReduction, S.NumSerial, S.NumUnknown, Inductions,
                      Reductions, static_cast<unsigned long long>(Hash));
}

/// tests/golden/frontend_fingerprint.txt, keyed by program name.
std::map<std::string, std::string> frontEndGolden() {
  std::ifstream In(std::string(KREMLIN_GOLDEN_DIR) +
                   "/frontend_fingerprint.txt");
  EXPECT_TRUE(In.good()) << "missing tests/golden/frontend_fingerprint.txt";
  std::map<std::string, std::string> Golden;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Golden[Line.substr(0, Line.find(' '))] = Line;
  return Golden;
}

TEST(StaticDependence, FrontEndFingerprintsMatchGolden) {
  // Verdicts, reasons, marks, operand order and merge blocks of the 11
  // suite programs, two 300-site programs and one 100-site kernel must not
  // move when the front end is rewritten for speed.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const std::string &Name : paperBenchmarkNames())
    Programs.push_back({Name, generatePaperBenchmark(Name).Source});
  for (unsigned Salt = 0; Salt < 2; ++Salt)
    Programs.push_back({"sites300_" + std::to_string(Salt),
                        generateBenchmark(cyclingSiteSpec(300, 4, Salt))
                            .Source});
  Programs.push_back(
      {"kernel100", generateBenchmark(cyclingSiteSpec(100, 100)).Source});

  std::map<std::string, std::string> Golden = frontEndGolden();
  EXPECT_EQ(Golden.size(), Programs.size());
  for (const auto &[Name, Source] : Programs) {
    std::string Line = frontEndFingerprint(Name, Source);
    auto It = Golden.find(Name);
    EXPECT_TRUE(It != Golden.end() && It->second == Line)
        << "front-end fingerprint of " << Name
        << " differs; if the change is intended, its line in "
           "tests/golden/frontend_fingerprint.txt becomes:\n"
        << Line;
  }
}

TEST(StaticDependence, ConcurrentLintsMatchGoldenFingerprints) {
  // Four lints at once share the one front-end helper pool, as
  // kremlin-bench's workers do; each must decide exactly what the golden
  // pins.
  const std::pair<std::string, std::string> Programs[] = {
      {"sites300_0", generateBenchmark(cyclingSiteSpec(300, 4, 0)).Source},
      {"sp", generatePaperBenchmark("sp").Source}};
  std::vector<std::string> Lines(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Lines.size(); ++T)
    Threads.emplace_back([&Programs, &Lines, T]() {
      const auto &[Name, Source] = Programs[T % 2];
      Lines[T] = frontEndFingerprint(Name, Source);
    });
  for (std::thread &T : Threads)
    T.join();
  std::map<std::string, std::string> Golden = frontEndGolden();
  for (size_t T = 0; T < Lines.size(); ++T)
    EXPECT_EQ(Lines[T], Golden[Programs[T % 2].first]) << "thread " << T;
}

// --- Paper-suite cross-check ------------------------------------------------

TEST(StaticDependence, NoProvablyDoallLoopMeasuresSerial) {
  // Soundness gate: on every paper benchmark, a loop the static analyzer
  // proves DOALL must never be measured dynamically serial (the converse
  // — measured parallel but provably serial — is legal input
  // sensitivity).
  for (const std::string &Name : paperBenchmarkNames()) {
    Expected<GeneratedBenchmark> GB = tryGeneratePaperBenchmark(Name);
    ASSERT_TRUE(GB.ok()) << Name;
    ProfiledRun Run = profileSource(GB->Source);
    ASSERT_TRUE(Run.Exec.Ok) << Name;
    StaticAnalysisResult R = analyzeModuleDependence(*Run.M);
    for (const StaticLoopResult &L : R.Loops) {
      if (L.Verdict != LoopVerdict::ProvablyDoall || L.Region == NoRegion)
        continue;
      const RegionProfileEntry &E = Run.Profile->entry(L.Region);
      if (!E.Executed || E.avgIterations() < 2.0)
        continue;
      EXPECT_NE(E.Class, LoopClass::Serial)
          << Name << " region " << L.Region << " ("
          << Run.M->Regions[L.Region].sourceSpan()
          << "): provably DOALL but measured serial (SP="
          << E.SelfParallelism << ")";
    }
  }
}

} // namespace

//===- tests/PropertyTest.cpp - randomized invariant sweeps ---------------===//
//
// Property-style tests: a seeded random MiniC program generator drives the
// whole pipeline, and TEST_P sweeps assert the invariants that must hold
// for every program — profiled semantics match plain semantics, summary
// cp <= work, children's work fits the parent's, self-parallelism >= 1,
// compressed multiplicities are flow-consistent, and OpenMP plans respect
// the one-region-per-path constraint.
//
//===----------------------------------------------------------------------===//

#include "HcpaOracle.h"
#include "TestUtil.h"

#include "analysis/StaticDependence.h"
#include "planner/Personality.h"
#include "support/Prng.h"
#include "support/StringUtils.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

/// Generates a random structured MiniC program. All loops have fixed
/// bounds and all indices are reduced modulo the array size, so every
/// generated program terminates and stays in bounds.
class RandomProgram {
public:
  explicit RandomProgram(uint64_t Seed) : Rng(Seed) {
    Src += "int mem[64];\n";
    Src += "int aux[32];\n";
    Src += "int par[16];\n"; // Touched only by generated DOALL loops.
    Src += "int ser[4];\n";  // Touched only by generated serial loops.
    unsigned NumFuncs = 1 + Rng.nextBelow(3);
    for (unsigned F = 0; F < NumFuncs; ++F) {
      std::string Name = formatString("fn%u", F);
      Funcs.push_back(Name);
      Src += "int " + Name + "(int p) {\n";
      Src += "  int v = p + " + formatString("%u", F) + ";\n";
      emitBlock(2, /*Depth=*/0, /*CanCall=*/F); // Call only earlier fns.
      Src += "  return v % 1009;\n}\n";
    }
    Src += "int main() {\n  int v = 1;\n";
    emitBlock(2, 0, NumFuncs);
    Src += "  return v % 1009;\n}\n";
  }

  const std::string &source() const { return Src; }

private:
  Prng Rng;
  std::string Src;
  std::vector<std::string> Funcs;
  unsigned LoopCounter = 0;
  unsigned TempCounter = 0;

  void indent(unsigned Depth) { Src.append(2 * Depth + 2, ' '); }

  /// A random int expression of depth <= \p Depth: integer arithmetic
  /// with Div/Rem, unary - and !, compares and &&/|| of int
  /// subexpressions, and compares of float ones. Leaves are v (often
  /// several times), literals, array reads and calls. A \p Full tree only
  /// has binary nodes above its leaves, which are v or array reads, so
  /// no call cuts it and most of its 2^Depth leaves are distinct.
  std::string intExpr(unsigned Depth, unsigned CanCall, bool Full) {
    if (Depth == 0 || (!Full && Rng.nextBool(0.15)))
      return leaf(CanCall, /*Bounded=*/false, Full);
    static const char *const Ops[] = {"+",  "-",  "*",  "/",  "%",
                                      "<",  "<=", ">",  ">=", "==",
                                      "!=", "&&", "||"};
    switch (Full ? 3 : Rng.nextBelow(6)) {
    case 0:
      return "(-" + intExpr(Depth - 1, CanCall, Full) + ")";
    case 1:
      return "(!" + intExpr(Depth - 1, CanCall, Full) + ")";
    case 2:
      return "(" + floatExpr(Depth - 1, CanCall, Full) +
             (Rng.nextBool(0.5) ? " < " : " >= ") +
             floatExpr(Depth - 1, CanCall, Full) + ")";
    default:
      return "(" + intExpr(Depth - 1, CanCall, Full) + " " +
             Ops[Rng.nextBelow(std::size(Ops))] + " " +
             intExpr(Depth - 1, CanCall, Full) + ")";
    }
  }

  /// A float expression mixing int leaves (promoted) with float literals.
  /// Leaves stay below 9 in magnitude and only +, -, * and division by 2.0
  /// combine them, so a depth-4 tree stays far inside int64 range when it
  /// is converted back.
  std::string floatExpr(unsigned Depth, unsigned CanCall, bool Full) {
    if (Depth == 0 || (!Full && Rng.nextBool(0.15)))
      return !Full && Rng.nextBool(0.25)
                 ? formatString("%llu.5", (unsigned long long)Rng.nextBelow(8))
                 : leaf(CanCall, /*Bounded=*/true, Full);
    switch (Full ? 2 : Rng.nextBelow(5)) {
    case 0:
      return "(-" + floatExpr(Depth - 1, CanCall, Full) + ")";
    case 1:
      return "(" + floatExpr(Depth - 1, CanCall, Full) + " / 2.0)";
    default: {
      const char *Op = Rng.nextBool(0.4) ? "*" : Rng.nextBool(0.5) ? "+" : "-";
      return "(" + floatExpr(Depth - 1, CanCall, Full) + " " + Op + " " +
             floatExpr(Depth - 1, CanCall, Full) + ")";
    }
    }
  }

  /// v, a literal, an array read or a call (only v or an array read when
  /// \p Full); reduced modulo 9 when \p Bounded.
  std::string leaf(unsigned CanCall, bool Bounded, bool Full) {
    std::string L;
    unsigned Kind = Rng.nextBelow(20);
    if (Full && Kind >= 5)
      Kind = 8; // An array read, never a literal or a call.
    if (Kind < 5)
      L = "v";
    else if (Kind < 8)
      return formatString("%llu", (unsigned long long)Rng.nextInRange(1, 9));
    else if (Kind < 17 || CanCall == 0)
      L = formatString("mem[((v %% 64 + 64) + %llu) %% 64]",
                       (unsigned long long)Rng.nextBelow(64));
    else
      L = formatString("%s((v %% 50 + 50) %% 50)",
                       Funcs[Rng.nextBelow(CanCall)].c_str());
    return Bounded ? "(" + L + " % 9)" : L;
  }

  void emitStmt(unsigned Depth, unsigned CanCall) {
    switch (Rng.nextBelow(Depth >= 3 ? 4 : 13)) {
    case 0: // Scalar update chain.
      indent(Depth);
      Src += formatString("v = v * %llu + %llu;\n",
                          (unsigned long long)Rng.nextInRange(2, 5),
                          (unsigned long long)Rng.nextInRange(1, 9));
      break;
    case 1: // Memory write; sometimes the read-modify-write shape the
            // tape decoder fuses into a LoadOpStore superinstruction.
      indent(Depth);
      if (Rng.nextBool(0.35)) {
        unsigned long long Cell = Rng.nextBelow(64);
        Src += formatString("mem[%llu] = mem[%llu] %s %llu;\n", Cell, Cell,
                            Rng.nextBool(0.5) ? "+" : "*",
                            (unsigned long long)Rng.nextInRange(1, 9));
      } else {
        Src += formatString("mem[((v %% 64 + 64) + %llu) %% 64] = v + %llu;\n",
                            (unsigned long long)Rng.nextBelow(64),
                            (unsigned long long)Rng.nextBelow(100));
      }
      break;
    case 2: // Memory read.
      indent(Depth);
      Src += formatString("v = v + mem[((v %% 64 + 64) * 7 + %llu) %% 64] %% 13;\n",
                          (unsigned long long)Rng.nextBelow(64));
      break;
    case 7: { // Scalar + reduction over read-only cells.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(13);
      indent(Depth);
      Src += formatString("for (int z%u = 0; z%u < %u; z%u = z%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += formatString("v = v + par[z%u %% 16] %% 9;\n", Id);
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 8: { // Min/max fold: the if-guarded replacement idiom.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(13);
      const char *Rel = Rng.nextBool(0.5) ? ">" : "<";
      indent(Depth);
      Src += formatString("for (int m%u = 0; m%u < %u; m%u = m%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += formatString("if (aux[m%u %% 32] %s v) { v = aux[m%u %% 32]; }\n",
                          Id, Rel, Id);
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 3: // Call (only to already-defined functions).
      if (CanCall > 0) {
        indent(Depth);
        Src += formatString("v = v + %s((v %% 50 + 50) %% 50) %% 31;\n",
                            Funcs[Rng.nextBelow(CanCall)].c_str());
      } else {
        indent(Depth);
        Src += "v = v + 1;\n";
      }
      break;
    case 4: { // If/else, on a compare DAG or on values no compare computes.
      indent(Depth);
      unsigned long long K = Rng.nextInRange(2, 7);
      switch (Rng.nextBelow(3)) {
      case 0: // The remainder folds into the compare: its Branch's Tree.
        Src += formatString("if (v %% %llu < %llu) {\n", K,
                            (unsigned long long)Rng.nextInRange(1, 3));
        break;
      case 1: // A plain value: a Branch that carries no compare.
        Src += formatString("if (v %% %llu) {\n", K);
        break;
      default: // An And of a compare and a value: no compare either.
        Src += formatString("if (v %% %llu < %llu && mem[%llu] %% 3) {\n",
                            K, (unsigned long long)Rng.nextInRange(1, 3),
                            (unsigned long long)Rng.nextBelow(64));
        break;
      }
      emitBlock(1 + Rng.nextBelow(2), Depth + 1, CanCall);
      if (Rng.nextBool(0.5)) {
        indent(Depth);
        Src += "} else {\n";
        emitBlock(1, Depth + 1, CanCall);
      }
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 5: { // Counted loop.
      unsigned Id = LoopCounter++;
      unsigned Iters = 2 + Rng.nextBelow(12);
      indent(Depth);
      Src += formatString("for (int i%u = 0; i%u < %u; i%u = i%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      // Loop bodies may use the loop variable.
      indent(Depth + 1);
      Src += formatString("aux[i%u %% 32] = aux[i%u %% 32] + v %% 17;\n",
                          Id, Id);
      emitBlock(1 + Rng.nextBelow(2), Depth + 1, CanCall);
      indent(Depth);
      Src += "}\n";
      break;
    }
    case 9: { // Expression trees, int or converted back from float.
      bool Full = Rng.nextBool(0.5);
      indent(Depth);
      if (Rng.nextBool(0.3))
        Src += "v = (v % 1009) + " + floatExpr(3, CanCall, Full) + ";\n";
      else
        Src += "v = " + intExpr(4, CanCall, Full) + ";\n";
      break;
    }
    case 10:
      emitStoredTemporary(Depth, CanCall, Rng.nextBool(0.5));
      break;
    case 11:
      emitLeafRewrittenBeforeItsRoot(Depth);
      break;
    case 6: { // Provably DOALL loop: distinct par[] cell per iteration.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(13); // <= 16, in bounds of par.
      indent(Depth);
      Src += formatString("for (int d%u = 0; d%u < %u; d%u = d%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += formatString("par[d%u] = d%u * 3 + %llu;\n", Id, Id,
                          (unsigned long long)Rng.nextBelow(50));
      indent(Depth);
      Src += "}\n";
      break;
    }
    default: { // Provably serial loop: a non-reduction ZIV recurrence.
      unsigned Id = LoopCounter++;
      unsigned Iters = 4 + Rng.nextBelow(9);
      indent(Depth);
      Src += formatString("for (int s%u = 0; s%u < %u; s%u = s%u + 1) {\n",
                          Id, Id, Iters, Id, Id);
      indent(Depth + 1);
      Src += "ser[0] = (ser[0] * 3 + 1) % 1009;\n";
      indent(Depth);
      Src += "}\n";
      break;
    }
    }
  }

  /// A temporary that a store reads and a later statement reads again,
  /// next to a load of the stored cell: the store reads the temporary's
  /// own row, so the temporary cannot fold into the later statement's DAG
  /// (fold condition 1, DESIGN §5a). A loop of its own makes the later
  /// statement each body's critical path, where a wrong time shows.
  void emitStoredTemporary(unsigned Depth, unsigned CanCall, bool Full) {
    unsigned Id = LoopCounter++;
    std::string T = formatString("t%u", TempCounter++);
    unsigned long long Cell = Rng.nextBelow(64);
    indent(Depth);
    Src += formatString("for (int k%u = 0; k%u < %llu; k%u = k%u + 1) {\n",
                        Id, Id, (unsigned long long)Rng.nextInRange(2, 4), Id,
                        Id);
    indent(Depth + 1);
    Src += "int " + T + " = " + intExpr(3, CanCall, Full) + ";\n";
    indent(Depth + 1);
    Src += formatString("mem[%llu] = %s;\n", Cell, T.c_str());
    indent(Depth + 1);
    Src += formatString("v = (v %% 1009 + %s %% %llu) + mem[%llu] %% 13 * 3;\n",
                        T.c_str(), (unsigned long long)Rng.nextInRange(2, 9),
                        Cell);
    indent(Depth);
    Src += "}\n";
  }

  /// A chain that reads v, a rewrite of v that a store also reads (so it
  /// writes v's row), and the end of the chain: the chain's read of v must
  /// not see the new row (fold condition 5, DESIGN §5a). A loop of its own
  /// makes the chain each body's critical path, where a wrong time shows;
  /// the chain reads nothing but v, so no longer path hides its reads.
  void emitLeafRewrittenBeforeItsRoot(unsigned Depth) {
    unsigned Id = LoopCounter++;
    std::string T = formatString("t%u", TempCounter++);
    indent(Depth);
    Src += formatString("for (int k%u = 0; k%u < %llu; k%u = k%u + 1) {\n",
                        Id, Id, (unsigned long long)Rng.nextInRange(2, 4), Id,
                        Id);
    indent(Depth + 1);
    Src += formatString("int %s = v * %llu + v %% %llu;\n", T.c_str(),
                        (unsigned long long)Rng.nextInRange(2, 5),
                        (unsigned long long)Rng.nextInRange(2, 9));
    indent(Depth + 1);
    Src += formatString("v = mem[%llu] %% 13 + %llu;\n",
                        (unsigned long long)Rng.nextBelow(64),
                        (unsigned long long)Rng.nextInRange(1, 9));
    indent(Depth + 1);
    Src += formatString("mem[%llu] = v;\n",
                        (unsigned long long)Rng.nextBelow(64));
    indent(Depth + 1);
    Src += formatString("v = (v + %s * %llu) %% 1009;\n", T.c_str(),
                        (unsigned long long)Rng.nextInRange(2, 5));
    indent(Depth);
    Src += "}\n";
  }

  void emitBlock(unsigned Stmts, unsigned Depth, unsigned CanCall) {
    for (unsigned S = 0; S < Stmts; ++S)
      emitStmt(Depth, CanCall);
  }
};

class PipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineProperty, ProfiledSemanticsMatchPlain) {
  RandomProgram P(GetParam());
  SCOPED_TRACE(P.source());
  int64_t Plain = runPlain(P.source());
  ProfiledRun Run = profileSource(P.source());
  EXPECT_EQ(Run.Exec.ExitValue, Plain);
}

TEST_P(PipelineProperty, SummaryInvariants) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  const std::vector<DynRegionSummary> &Alpha = Run.Dict->alphabet();
  for (const DynRegionSummary &S : Alpha) {
    EXPECT_LE(S.Cp, S.Work);
    uint64_t ChildWork = 0;
    for (const auto &[C, Freq] : S.Children) {
      EXPECT_LT(C, Alpha.size());
      ChildWork += Alpha[C].Work * Freq;
    }
    EXPECT_LE(ChildWork, S.Work);
    EXPECT_GE(summarySelfParallelism(S, Alpha), 1.0);
  }
}

TEST_P(PipelineProperty, MultiplicityFlowConservation) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  const std::vector<DynRegionSummary> &Alpha = Run.Dict->alphabet();
  std::vector<uint64_t> Mult = Run.Dict->computeMultiplicities();
  std::vector<uint64_t> FromParents(Alpha.size(), 0);
  for (size_t C = 0; C < Alpha.size(); ++C)
    for (const auto &[Child, Freq] : Alpha[C].Children)
      FromParents[Child] += Freq * Mult[C];
  for (const auto &[RootChar, Count] : Run.Dict->roots())
    FromParents[RootChar] += Count;
  for (size_t C = 0; C < Alpha.size(); ++C)
    EXPECT_EQ(FromParents[C], Mult[C]);
  // Total dynamic regions are preserved by compression.
  uint64_t TotalDyn = 0;
  for (uint64_t M : Mult)
    TotalDyn += M;
  EXPECT_EQ(TotalDyn, Run.Dict->numDynamicRegions());
}

TEST_P(PipelineProperty, ProfileMetricBounds) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  for (const RegionProfileEntry &E : Run.Profile->entries()) {
    if (!E.Executed)
      continue;
    EXPECT_GE(E.SelfParallelism, 1.0);
    EXPECT_GE(E.TotalParallelism, 1.0);
    EXPECT_GE(E.CoveragePct, 0.0);
    EXPECT_LE(E.CoveragePct, 100.0 + 1e-9);
    EXPECT_LE(E.TotalCp, E.TotalWork);
    EXPECT_GE(E.Instances, 1u);
  }
}

TEST_P(PipelineProperty, OpenMPPlanRespectsPathConstraint) {
  RandomProgram P(GetParam());
  ProfiledRun Run = profileSource(P.source());
  Plan Plan =
      makeOpenMPPersonality()->plan(*Run.Profile, PlannerOptions());
  for (const PlanItem &A : Plan.Items) {
    EXPECT_EQ(Run.M->Regions[A.Region].Kind, RegionKind::Loop);
    for (const PlanItem &B : Plan.Items) {
      if (A.Region == B.Region)
        continue;
      for (RegionId R = Run.Profile->parent(A.Region); R != NoRegion;
           R = Run.Profile->parent(R))
        ASSERT_NE(R, B.Region) << "nested selections in plan";
    }
  }
}

TEST_P(PipelineProperty, DepthWindowPreservesWorkTotals) {
  RandomProgram P(GetParam());
  KremlinConfig Narrow;
  Narrow.NumLevels = 2;
  ProfiledRun A = profileSource(P.source());
  ProfiledRun B = profileSource(P.source(), Narrow);
  EXPECT_EQ(A.Profile->programWork(), B.Profile->programWork());
  for (size_t R = 0; R < A.Profile->entries().size(); ++R)
    EXPECT_EQ(A.Profile->entries()[R].TotalWork,
              B.Profile->entries()[R].TotalWork);
}

TEST_P(PipelineProperty, StaticVerdictsConsistentWithMeasurement) {
  // The static analyzer's verdicts are input-independent claims, so they
  // must square with what HCPA measures on the generated input: a
  // provably DOALL loop's self-parallelism tracks its iteration count,
  // and a provably serial loop can never measure highly parallel.
  RandomProgram P(GetParam());
  SCOPED_TRACE(P.source());
  ProfiledRun Run = profileSource(P.source());
  StaticAnalysisResult R = analyzeModuleDependence(*Run.M);
  for (const StaticLoopResult &L : R.Loops) {
    if (L.Region == NoRegion)
      continue;
    const RegionProfileEntry &E = Run.Profile->entry(L.Region);
    if (!E.Executed || E.avgIterations() < 2.0)
      continue;
    if (L.Verdict == LoopVerdict::ProvablyDoall) {
      EXPECT_GE(E.SelfParallelism, 0.7 * E.avgIterations())
          << Run.M->Regions[L.Region].sourceSpan() << ": " << L.Reason;
    } else if (L.Verdict == LoopVerdict::ProvablySerial) {
      EXPECT_LT(E.SelfParallelism, 5.0)
          << Run.M->Regions[L.Region].sourceSpan() << ": " << L.Reason;
    } else if (L.Verdict == LoopVerdict::ProvablyReduction &&
               !L.MinMaxReduction) {
      // HCPA's runtime rule breaks +/* reductions, so a provable
      // reduction must also *measure* parallel. Min/max folds are exempt:
      // the runtime cannot break those, and they legitimately measure
      // serial on every input.
      EXPECT_GE(E.SelfParallelism, 0.7 * E.avgIterations())
          << Run.M->Regions[L.Region].sourceSpan() << ": " << L.Reason;
    }
  }
}

/// A program whose loops each live in their own function with a verdict
/// known by construction: scalar +/* reductions, min/max folds, doall
/// loops calling a pure recursive helper, plain doall loops, and
/// accumulators the loop also reads outside their update (a prefix sum, an
/// early exit on the running sum, a prefix sum through a memory cell, and
/// a running sum passed to a call), which are no reductions — randomly
/// parameterized (op, relation, trip count, constants).
class KnownVerdictProgram {
public:
  struct ExpectedLoop {
    std::string Func;
    LoopVerdict Verdict;
    bool MinMax = false;
    /// The loop reads its running value outside the update. It must not
    /// come out as a reduction, whatever else it is (Verdict is unused),
    /// and no instruction of Func may carry a reduction mark.
    bool ReadsRunningValue = false;
  };

  explicit KnownVerdictProgram(uint64_t Seed) {
    Prng Rng(Seed);
    Src += "int data[48];\n";
    Src += "int out[16];\n";
    Src += "int cell[1];\n";
    Src += "int pure3(int x) {"
           " if (x < 1) { return 1; }"
           " return pure3(x - 2) + 1; }\n";
    Src += "int keep(int v) { return v; }\n";
    unsigned NumLoops = 4 + Rng.nextBelow(4);
    std::string MainBody;
    for (unsigned K = 0; K < NumLoops; ++K) {
      std::string Name = formatString("loop%u", K);
      unsigned Kind = Rng.nextBelow(9);
      unsigned Iters = 4 + Rng.nextBelow(12); // <= 15: in bounds of out.
      unsigned long long C = Rng.nextInRange(1, 9);
      Src += "int " + Name + "() {\n";
      switch (Kind) {
      case 0: // sum += data[i] (the accumulator must be a top-level
              // operand of the update for the reduction mark to fire)
        Src += formatString("  int s = %llu;\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " s = s + data[i]; }\n"
                            "  return s;\n",
                            C, Iters);
        Expected.push_back({Name, LoopVerdict::ProvablyReduction, false});
        break;
      case 1: // prod *= small factor
        Src += formatString("  int p = 1;\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " p = p * (data[i] %% 3 + 1); }\n"
                            "  return p;\n",
                            Iters);
        Expected.push_back({Name, LoopVerdict::ProvablyReduction, false});
        break;
      case 2: { // min/max fold
        bool Max = Rng.nextBool(0.5);
        Src += formatString("  int b = data[0];\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " if (data[i] %s b) { b = data[i]; } }\n"
                            "  return b;\n",
                            Iters, Max ? ">" : "<");
        Expected.push_back({Name, LoopVerdict::ProvablyReduction, true});
        break;
      }
      case 3: // doall through a summarized pure recursive callee
        Src += formatString("  for (int i = 0; i < %u; i = i + 1) {"
                            " out[i] = pure3(i %% 7) + %llu; }\n"
                            "  return out[0];\n",
                            Iters, C);
        Expected.push_back({Name, LoopVerdict::ProvablyDoall, false});
        break;
      case 4: // plain doall
        Src += formatString("  for (int i = 0; i < %u; i = i + 1) {"
                            " out[i] = i * 2 + %llu; }\n"
                            "  return out[0];\n",
                            Iters, C);
        Expected.push_back({Name, LoopVerdict::ProvablyDoall, false});
        break;
      case 5: // prefix sum: each iteration stores the running sum
        Src += formatString("  int s = %llu;\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " s = s + data[i]; out[i] = s; }\n"
                            "  return s;\n",
                            C, Iters);
        Expected.push_back({Name, LoopVerdict::Unknown, false, true});
        break;
      case 6: // early exit on the running sum
        Src += formatString("  int x = 0;\n"
                            "  for (int j = 0; j < %u; j = j + 1) {"
                            " x = x + data[j]; if (x > %llu) { return x; } }\n"
                            "  return x;\n",
                            Iters, C * 40);
        Expected.push_back({Name, LoopVerdict::Unknown, false, true});
        break;
      case 7: // prefix sum through a memory cell
        Src += formatString("  cell[0] = %llu;\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " cell[0] = cell[0] + data[i];"
                            " out[i] = cell[0]; }\n"
                            "  return cell[0];\n",
                            C, Iters);
        Expected.push_back({Name, LoopVerdict::Unknown, false, true});
        break;
      default: // the running sum passed to a call
        Src += formatString("  int s = %llu;\n"
                            "  for (int i = 0; i < %u; i = i + 1) {"
                            " s = s + data[i]; out[i] = keep(s); }\n"
                            "  return s;\n",
                            C, Iters);
        Expected.push_back({Name, LoopVerdict::Unknown, false, true});
        break;
      }
      Src += "}\n";
      MainBody += "  acc = acc + " + Name + "() % 501;\n";
    }
    Src += "int main() {\n  int acc = 0;\n";
    Src += "  for (int w = 0; w < 48; w = w + 1) {"
           " data[w] = (w * 13 + 7) % 101; }\n";
    Src += MainBody;
    Src += "  return acc % 1009;\n}\n";
  }

  const std::string &source() const { return Src; }
  const std::vector<ExpectedLoop> &expected() const { return Expected; }

private:
  std::string Src;
  std::vector<ExpectedLoop> Expected;
};

TEST_P(PipelineProperty, KnownVerdictLoopsClassifyAndMeasureConsistently) {
  KnownVerdictProgram P(GetParam());
  SCOPED_TRACE(P.source());
  ProfiledRun Run = profileSource(P.source());
  StaticAnalysisResult R = analyzeModuleDependence(*Run.M);
  for (const KnownVerdictProgram::ExpectedLoop &X : P.expected()) {
    const StaticLoopResult *Found = nullptr;
    for (const StaticLoopResult &L : R.Loops)
      if (L.Func != NoFunc && Run.M->Functions[L.Func].Name == X.Func)
        Found = &L;
    ASSERT_NE(Found, nullptr) << X.Func;
    if (X.ReadsRunningValue) {
      EXPECT_NE(Found->Verdict, LoopVerdict::ProvablyReduction)
          << X.Func << ": " << Found->Reason;
      for (const Function &F : Run.M->Functions) {
        if (F.Name != X.Func)
          continue;
        for (const BasicBlock &B : F.Blocks)
          for (const Instruction &I : B.Insts) {
            EXPECT_FALSE(I.IsReductionUpdate) << X.Func << " line " << I.Line;
          }
      }
      continue;
    }
    EXPECT_EQ(Found->Verdict, X.Verdict)
        << X.Func << ": " << Found->Reason;
    EXPECT_EQ(Found->MinMaxReduction, X.MinMax) << X.Func;
    if (Found->Region == NoRegion)
      continue;
    const RegionProfileEntry &E = Run.Profile->entry(Found->Region);
    if (!E.Executed || E.avgIterations() < 2.0)
      continue;
    // Every provable verdict must square with the measured profile
    // (min/max folds exempt: the runtime cannot break them).
    if (X.Verdict == LoopVerdict::ProvablyDoall ||
        (X.Verdict == LoopVerdict::ProvablyReduction && !X.MinMax)) {
      EXPECT_GE(E.SelfParallelism, 0.7 * E.avgIterations())
          << X.Func << ": " << Found->Reason;
    }
  }
}

TEST_P(PipelineProperty, TapeMatchesReferenceEngine) {
  // The reference engine is the HCPA oracle (HcpaOracle.h): it executes the
  // IR itself and shares no runtime code, so the tape's fusion and event
  // elision and every KremlinRuntime shortcut (watermarked register rows,
  // tagged shadow pages, cached control-dependence times) must reproduce
  // its exit value, dynamic instruction count and profile bit for bit, at
  // the default depth window and at a narrow one that starts below main.
  RandomProgram P(GetParam());
  {
    SCOPED_TRACE(P.source());
    expectProfileMatchesOracle(P.source());
    KremlinConfig Narrow;
    Narrow.MinLevel = 1;
    Narrow.NumLevels = 2;
    expectProfileMatchesOracle(P.source(), Narrow);
  }
  KnownVerdictProgram K(GetParam());
  SCOPED_TRACE(K.source());
  expectProfileMatchesOracle(K.source());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace

//===- tests/AnalysisTest.cpp - dominators, CD, loops, induction ----------===//

#include "instrument/Instrumenter.h"
#include "analysis/Dominators.h"
#include "analysis/Induction.h"
#include "analysis/Loops.h"
#include "ir/IRBuilder.h"
#include "parser/Lower.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace kremlin;

namespace {

/// Builds a diamond CFG: bb0 -> {bb1, bb2} -> bb3 (ret).
struct DiamondFixture {
  Module M;
  FuncId Id;

  DiamondFixture() {
    Function F;
    F.Name = "diamond";
    F.ReturnTy = Type::Void;
    Id = M.addFunction(std::move(F));
    Function &Fn = M.Functions[Id];
    IRBuilder B(M, Fn);
    BlockId B0 = B.createBlock("entry");
    BlockId B1 = B.createBlock("then");
    BlockId B2 = B.createBlock("else");
    BlockId B3 = B.createBlock("join");
    B.setInsertPoint(B0);
    ValueId C = B.emitConstInt(1);
    B.emitCondBr(C, B1, B2);
    B.setInsertPoint(B1);
    B.emitBr(B3);
    B.setInsertPoint(B2);
    B.emitBr(B3);
    B.setInsertPoint(B3);
    B.emitRet();
  }
  const Function &fn() const { return M.Functions[Id]; }
};

TEST(Dominators, Diamond) {
  DiamondFixture D;
  DomTree DT = computeDominators(D.fn());
  EXPECT_EQ(DT.Root, 0u);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 0u);
  EXPECT_EQ(DT.idom(3), 0u); // Join dominated by entry, not a branch arm.
  EXPECT_TRUE(DT.dominates(0, 3));
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_TRUE(DT.dominates(2, 2));
}

TEST(Dominators, PostDominatorsDiamond) {
  DiamondFixture D;
  DomTree PDT = computePostDominators(D.fn());
  // The join post-dominates everything; arms post-dominate nothing else.
  EXPECT_EQ(immediatePostDominator(PDT, D.fn(), 0), 3u);
  EXPECT_EQ(immediatePostDominator(PDT, D.fn(), 1), 3u);
  EXPECT_EQ(immediatePostDominator(PDT, D.fn(), 2), 3u);
  // bb3's only post-dominator is the virtual exit.
  EXPECT_EQ(immediatePostDominator(PDT, D.fn(), 3), NoBlock);
}

TEST(Dominators, UnreachableBlockHandled) {
  Module M;
  Function F;
  F.Name = "u";
  F.ReturnTy = Type::Void;
  FuncId Id = M.addFunction(std::move(F));
  IRBuilder B(M, M.Functions[Id]);
  BlockId B0 = B.createBlock("entry");
  BlockId Dead = B.createBlock("dead");
  B.setInsertPoint(B0);
  B.emitRet();
  B.setInsertPoint(Dead);
  B.emitRet();
  DomTree DT = computeDominators(M.Functions[Id]);
  EXPECT_TRUE(DT.isReachable(B0));
  EXPECT_FALSE(DT.isReachable(Dead));
}

TEST(ControlDependence, DiamondArmsDependOnBranch) {
  // The branch's dependence is popped at its merge block, the join: both
  // arms run under it, the join executes regardless.
  DiamondFixture D;
  DomTree PDT = computePostDominators(D.fn());
  EXPECT_EQ(immediatePostDominator(PDT, D.fn(), 0), 3u);
}

TEST(ControlDependence, FrontendMergeBlocksMatchAnalysis) {
  // The structured frontend sets MergeBlock during lowering; the analysis
  // must agree on every CondBr (this validates both).
  LowerResult R = compileMiniC(R"(
    int main() {
      int x = 0;
      for (int i = 0; i < 4; i = i + 1) {
        if (i % 2 == 0) { x = x + 1; } else { x = x + 2; }
        while (x > 10) { x = x - 3; }
      }
      if (x > 2) { return x; }
      return 0;
    }
  )", "t.c");
  ASSERT_TRUE(R.succeeded());
  const Function &F = R.M->Functions[0];
  DomTree PDT = computePostDominators(F);
  for (BlockId BB = 0; BB < F.Blocks.size(); ++BB) {
    const Instruction &Term = F.Blocks[BB].terminator();
    if (Term.Op != Opcode::CondBr || Term.MergeBlock == NoBlock)
      continue;
    BlockId Merge = immediatePostDominator(PDT, F, BB);
    if (Merge != NoBlock) {
      EXPECT_EQ(Term.MergeBlock, Merge) << "bb" << BB;
    }
  }
}

TEST(Loops, DetectsForAndWhile) {
  LowerResult R = compileMiniC(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) { s = s + i; }
      while (s > 0) { s = s - 2; }
      return s;
    }
  )", "t.c");
  ASSERT_TRUE(R.succeeded());
  const Function &F = R.M->Functions[0];
  LoopInfo LI = computeLoops(F, computeDominators(F));
  EXPECT_EQ(LI.Loops.size(), 2u);
  for (const Loop &L : LI.Loops) {
    EXPECT_EQ(L.Parent, -1);
    EXPECT_FALSE(L.Latches.empty());
    EXPECT_TRUE(std::binary_search(L.Blocks.begin(), L.Blocks.end(), L.Header));
  }
}

TEST(Loops, NestingDepths) {
  LowerResult R = compileMiniC(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 2; i = i + 1) {
        for (int j = 0; j < 2; j = j + 1) {
          for (int k = 0; k < 2; k = k + 1) { s = s + 1; }
        }
      }
      return s;
    }
  )", "t.c");
  ASSERT_TRUE(R.succeeded());
  const Function &F = R.M->Functions[0];
  LoopInfo LI = computeLoops(F, computeDominators(F));
  ASSERT_EQ(LI.Loops.size(), 3u);
  // A loop's depth is the length of its Parent chain (outermost: 1).
  unsigned DepthHist[4] = {0, 0, 0, 0};
  for (const Loop &L : LI.Loops) {
    unsigned Depth = 1;
    for (int P = L.Parent; P >= 0; P = LI.Loops[static_cast<size_t>(P)].Parent)
      ++Depth;
    ++DepthHist[std::min(Depth, 3u)];
  }
  EXPECT_EQ(DepthHist[1], 1u);
  EXPECT_EQ(DepthHist[2], 1u);
  EXPECT_EQ(DepthHist[3], 1u);
}

// --- Induction / reduction marking ------------------------------------------

struct MarkCounts {
  unsigned Induction = 0;
  unsigned Reduction = 0;
};

MarkCounts markAndCount(const std::string &Src) {
  LowerResult R = compileMiniC(Src, "t.c");
  EXPECT_TRUE(R.succeeded());
  MarkCounts C;
  for (Function &F : R.M->Functions) {
    markInductionAndReductions(F, buildFunctionAnalysis(F));
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts) {
        // Count only the arithmetic update, not the helper Move.
        if (I.Op == Opcode::Move)
          continue;
        C.Induction += I.IsInductionUpdate;
        C.Reduction += I.IsReductionUpdate;
      }
  }
  return C;
}

TEST(Induction, BasicForLoopCounter) {
  MarkCounts C = markAndCount(
      "int main() { int s = 0; for (int i = 0; i < 4; i = i + 1)"
      " { s = s * 2; } return s; }");
  EXPECT_EQ(C.Induction, 1u);
}

TEST(Induction, DownCountingAndStrided) {
  MarkCounts C = markAndCount(R"(
    int main() {
      int s = 0;
      for (int i = 16; i > 0; i = i - 2) { s = s * 2; }
      return s;
    }
  )");
  EXPECT_EQ(C.Induction, 1u);
}

TEST(Induction, ScalarSumIsReduction) {
  MarkCounts C = markAndCount(R"(
    int a[8];
    int main() {
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
      return s;
    }
  )");
  EXPECT_EQ(C.Induction, 1u); // i
  EXPECT_EQ(C.Reduction, 1u); // s
}

TEST(Induction, ProductReduction) {
  MarkCounts C = markAndCount(R"(
    int a[8];
    int main() {
      int p = 1;
      for (int i = 0; i < 8; i = i + 1) { p = p * a[i]; }
      return p;
    }
  )");
  EXPECT_EQ(C.Reduction, 1u);
}

TEST(Induction, ChainedReductionExpressionFound) {
  // The accumulator read sits two adds deep: (s + x*x) + x/5.
  MarkCounts C = markAndCount(R"(
    int a[8];
    int main() {
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { s = s + a[i] * a[i] + a[i] / 5; }
      return s;
    }
  )");
  EXPECT_EQ(C.Reduction, 1u);
}

TEST(Induction, GenuineRecurrenceNotBroken) {
  // c feeds its own update non-trivially: breaking it would be wrong.
  MarkCounts C = markAndCount(R"(
    int main() {
      int c = 3;
      for (int i = 0; i < 8; i = i + 1) { c = c + c / (c % 7 + 2); }
      return c;
    }
  )");
  EXPECT_EQ(C.Reduction, 0u);
}

TEST(Induction, MemoryReductionDetected) {
  MarkCounts C = markAndCount(R"(
    int hist[16];
    int key[32];
    int main() {
      for (int i = 0; i < 32; i = i + 1) {
        hist[key[i] % 16] = hist[key[i] % 16] + 1;
      }
      return hist[0];
    }
  )");
  EXPECT_EQ(C.Reduction, 1u);
}

TEST(Induction, DifferentCellsNotReduction) {
  // a[i+1] = a[i] + 1 reads a different cell than it writes: a real chain.
  MarkCounts C = markAndCount(R"(
    int a[16];
    int main() {
      for (int i = 0; i < 15; i = i + 1) { a[i + 1] = a[i] + 1; }
      return a[15];
    }
  )");
  EXPECT_EQ(C.Reduction, 0u);
}

/// Memory reductions marked over every function of \p Src.
unsigned memoryReductions(const std::string &Src) {
  LowerResult R = compileMiniC(Src, "t.c");
  EXPECT_TRUE(R.succeeded());
  unsigned N = 0;
  for (Function &F : R.M->Functions)
    N += markInductionAndReductions(F, buildFunctionAnalysis(F))
             .NumMemoryReductions;
  return N;
}

TEST(Induction, StaleCopyInASubscriptIsNoMemoryReduction) {
  // y holds the previous iteration's x, so each iteration writes the cell
  // the next one reads.
  EXPECT_EQ(memoryReductions(R"(
    int a[64];
    int main() {
      int x;
      int y;
      for (int i = 0; i < 64; i = i + 1) {
        y = x;
        x = i % 2;
        a[y] = a[x] + 1;
      }
      return a[0];
    }
  )"),
            0u);
  // The same with the copy after the update.
  EXPECT_EQ(memoryReductions(R"(
    int a[64];
    int main() {
      int x;
      int y;
      for (int i = 0; i < 64; i = i + 1) {
        x = i % 2;
        a[y] = a[x] + 1;
        y = x;
      }
      return a[0];
    }
  )"),
            0u);
  // A copy of an expression over a variable assigned since.
  EXPECT_EQ(memoryReductions(R"(
    int a[64];
    int main() {
      int k = 0;
      int y;
      for (int i = 0; i < 64; i = i + 1) {
        y = k % 2;
        k = k + 1;
        a[y] = a[k % 2] + 1;
      }
      return a[0];
    }
  )"),
            0u);
  // An inner loop over the outer loop's current and previous q.
  EXPECT_EQ(memoryReductions(R"(
    int a[64];
    int main() {
      int p;
      for (int j = 0; j < 16; j = j + 1) {
        int q = j % 4;
        if (j > 0)
          for (int k = 0; k < 8; k = k + 1)
            a[p] = a[q] + 1;
        p = q;
      }
      return a[0];
    }
  )"),
            0u);
}

TEST(Induction, CopiesOfOneVariableAtTwoTimesAreNoMemoryReduction) {
  // y and z copy x before and after its update: the copies' operands are
  // one register, but not one value.
  EXPECT_EQ(memoryReductions(R"(
    int a[64];
    int main() {
      int x;
      int y;
      int z;
      for (int i = 0; i < 64; i = i + 1) {
        y = x;
        x = i % 2;
        z = x;
        a[y] = a[z] + 1;
      }
      return a[0];
    }
  )"),
            0u);
  // One variable in both subscripts is still a reduction.
  EXPECT_EQ(memoryReductions(R"(
    int a[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) {
        int x = i % 2;
        a[x] = a[x] + 1;
      }
      return a[0];
    }
  )"),
            1u);
}

TEST(Induction, SubtractionAccumulatorOnlyLeft) {
  // s = s - x is a reduction; s = x - s is not.
  MarkCounts C1 = markAndCount(R"(
    int a[8];
    int main() {
      int s = 100;
      for (int i = 0; i < 8; i = i + 1) { s = s - a[i]; }
      return s;
    }
  )");
  EXPECT_EQ(C1.Reduction, 1u);
  MarkCounts C2 = markAndCount(R"(
    int a[8];
    int main() {
      int s = 100;
      for (int i = 0; i < 8; i = i + 1) { s = a[i] - s; }
      return s;
    }
  )");
  EXPECT_EQ(C2.Reduction, 0u);
}

TEST(Induction, FloatReduction) {
  MarkCounts C = markAndCount(R"(
    float a[8];
    int main() {
      float s = 0.0;
      for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
      return 0;
    }
  )");
  EXPECT_EQ(C.Reduction, 1u);
}

TEST(Induction, ReductionFlagPropagatesToLoopRegion) {
  LowerResult R = compileMiniC(R"(
    int a[8];
    int main() {
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
      return s;
    }
  )", "t.c");
  ASSERT_TRUE(R.succeeded());
  instrumentModule(*R.M);
  bool LoopHasReduction = false;
  for (const StaticRegion &Reg : R.M->Regions)
    if (Reg.Kind == RegionKind::Loop)
      LoopHasReduction = Reg.HasReduction;
  EXPECT_TRUE(LoopHasReduction);
}

// --- Degenerate CFGs --------------------------------------------------------
//
// Analyses run on pre-verifier IR (--dump-ir, hand-built modules, fuzzed
// inputs), so they must tolerate shapes the verifier would reject: no
// blocks at all, unterminated blocks, self-loops, unreachable branches.

TEST(Dominators, EmptyFunction) {
  Function F;
  F.Name = "empty";
  DomTree DT = computeDominators(F);
  EXPECT_TRUE(DT.IDom.empty());
  DomTree PDT = computePostDominators(F);
  // Only the virtual exit exists.
  EXPECT_EQ(PDT.IDom.size(), 1u);
}

TEST(Dominators, SingleBlockSelfLoop) {
  Module M;
  Function F;
  F.Name = "spin";
  F.ReturnTy = Type::Void;
  FuncId Id = M.addFunction(std::move(F));
  IRBuilder B(M, M.Functions[Id]);
  BlockId B0 = B.createBlock("entry");
  B.setInsertPoint(B0);
  ValueId C = B.emitConstInt(1);
  B.emitCondBr(C, B0, B0); // Both edges loop back to the entry.
  const Function &Fn = M.Functions[Id];
  DomTree DT = computeDominators(Fn);
  EXPECT_TRUE(DT.dominates(B0, B0));
  // No Ret exists, so nothing post-dominates from the virtual exit; the
  // computation must still terminate without touching out-of-range ids.
  DomTree PDT = computePostDominators(Fn);
  EXPECT_FALSE(PDT.isReachable(B0));
  EXPECT_EQ(immediatePostDominator(PDT, Fn, B0), NoBlock);
}

TEST(Dominators, UnterminatedBlockTolerated) {
  Module M;
  Function F;
  F.Name = "cut";
  F.ReturnTy = Type::Void;
  FuncId Id = M.addFunction(std::move(F));
  IRBuilder B(M, M.Functions[Id]);
  BlockId B0 = B.createBlock("entry");
  BlockId B1 = B.createBlock("tail");
  B.setInsertPoint(B0);
  B.emitBr(B1);
  // B1 deliberately left without a terminator (pre-verifier IR).
  const Function &Fn = M.Functions[Id];
  EXPECT_FALSE(Fn.Blocks[B1].hasTerminator());
  DomTree DT = computeDominators(Fn);
  EXPECT_EQ(DT.idom(B1), B0);
  DomTree PDT = computePostDominators(Fn);
  EXPECT_FALSE(PDT.isReachable(B0));
  EXPECT_EQ(immediatePostDominator(PDT, Fn, B0), NoBlock);
  EXPECT_EQ(immediatePostDominator(PDT, Fn, B1), NoBlock);
}

TEST(ControlDependence, UnreachableEmptyBlockDoesNotCrash) {
  Module M;
  Function F;
  F.Name = "deadempty";
  F.ReturnTy = Type::Void;
  FuncId Id = M.addFunction(std::move(F));
  IRBuilder B(M, M.Functions[Id]);
  BlockId B0 = B.createBlock("entry");
  BlockId Dead = B.createBlock("dead"); // Never gets any instructions.
  B.setInsertPoint(B0);
  B.emitRet();
  const Function &Fn = M.Functions[Id];
  DomTree PDT = computePostDominators(Fn);
  EXPECT_EQ(immediatePostDominator(PDT, Fn, B0), NoBlock);
  EXPECT_EQ(immediatePostDominator(PDT, Fn, Dead), NoBlock);
}

} // namespace

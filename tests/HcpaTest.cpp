//===- tests/HcpaTest.cpp - Hierarchical CPA correctness ------------------===//
//
// Validates the core HCPA semantics against the paper's worked examples:
// Figure 5 (self-parallelism of serial vs parallel loops) and Figure 2
// (localization of parallelism to the correct nest level).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

// --- Figure 5: SP(parallel loop) == n, SP(serial loop) == 1 ---------------

TEST(Hcpa, ParallelLoopSelfParallelismMatchesIterationCount) {
  // Independent iterations: a[i] depends only on i.
  ProfiledRun Run = profileSource(R"(
    int a[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) {
        a[i] = i * 3 + 1;
      }
      return a[10];
    }
  )");
  EXPECT_EQ(Run.Exec.ExitValue, 31);
  const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->TotalChildren, 64u); // 64 body instances.
  // SP should be close to the iteration count (loop-control overhead makes
  // it slightly lower than the ideal n = 64).
  EXPECT_GT(L->SelfParallelism, 40.0);
  EXPECT_EQ(L->Class, LoopClass::Doall);
}

TEST(Hcpa, SerialLoopSelfParallelismIsOne) {
  // Each iteration reads the previous iteration's store: a genuine chain.
  ProfiledRun Run = profileSource(R"(
    int a[65];
    int main() {
      a[0] = 1;
      for (int i = 0; i < 64; i = i + 1) {
        a[i + 1] = a[i] * 2 + a[i] * a[i] + a[i] / 3 + 5;
      }
      return a[64] % 1000;
    }
  )");
  const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(L, nullptr);
  EXPECT_LT(L->SelfParallelism, 2.0);
  EXPECT_NE(L->Class, LoopClass::Doall);
}

TEST(Hcpa, ReductionLoopIsParallelAfterDependenceBreaking) {
  // s += a[i] is an easy-to-break dependence: Kremlin must break it and
  // report the loop as parallel (§4.1), unlike plain CPA.
  ProfiledRun Run = profileSource(R"(
    int a[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        a[i] = i * 7 + 3;
      }
      for (int i = 0; i < 64; i = i + 1) {
        s = s + a[i] * a[i] + a[i] / 5;
      }
      return s % 1000;
    }
  )");
  const RegionProfileEntry *Reduce =
      findRegion(Run, RegionKind::Loop, "main", /*Skip=*/1);
  ASSERT_NE(Reduce, nullptr);
  EXPECT_GT(Reduce->SelfParallelism, 20.0);
}

TEST(Hcpa, InductionVariableDoesNotSerializeLoop) {
  // Without induction-variable breaking, i's chain serializes everything.
  ProfiledRun Run = profileSource(R"(
    int a[128];
    int main() {
      int i = 0;
      while (i < 128) {
        a[i] = i * i + 2 * i + 1;
        i = i + 1;
      }
      return a[5];
    }
  )");
  const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(L, nullptr);
  EXPECT_GT(L->SelfParallelism, 40.0);
}

// --- Figure 2: localization to the right nest level ------------------------

TEST(Hcpa, LocalizesParallelismToInnermostLoop) {
  // The fillFeatures shape: outer i/j loops carry a serial dependence
  // (through best), only the innermost k loop is parallel. Traditional CPA
  // would report parallelism in every level; HCPA must confine it to k.
  ProfiledRun Run = profileSource(R"(
    int lambda[256];
    int feat[32];
    int best[1];
    int main() {
      for (int i = 0; i < 16; i = i + 1) {
        lambda[i] = (i * 37) % 19;
      }
      best[0] = 0;
      for (int i = 0; i < 8; i = i + 1) {
        for (int j = 0; j < 8; j = j + 1) {
          int curr = lambda[i * 8 + j] + best[0];
          for (int k = 0; k < 32; k = k + 1) {
            feat[k] = feat[k] + curr * k;
          }
          best[0] = best[0] + curr;
        }
      }
      return best[0] % 100;
    }
  )");
  // Innermost (k) loop: parallel. The i/j loops: serialized by best[0].
  const RegionProfileEntry *ILoop =
      findRegion(Run, RegionKind::Loop, "main", /*Skip=*/1);
  const RegionProfileEntry *JLoop =
      findRegion(Run, RegionKind::Loop, "main", /*Skip=*/2);
  const RegionProfileEntry *KLoop =
      findRegion(Run, RegionKind::Loop, "main", /*Skip=*/3);
  ASSERT_NE(ILoop, nullptr);
  ASSERT_NE(JLoop, nullptr);
  ASSERT_NE(KLoop, nullptr);
  EXPECT_GT(KLoop->SelfParallelism, 16.0);
  EXPECT_LT(ILoop->SelfParallelism, 3.0);
  EXPECT_LT(JLoop->SelfParallelism, 3.0);
  // Total parallelism (plain CPA) at the outer loop still looks high —
  // that is exactly the false positive HCPA eliminates.
  EXPECT_GT(ILoop->TotalParallelism, 8.0);
}

// --- Structural invariants --------------------------------------------------

TEST(Hcpa, WorkAndCpInvariants) {
  ProfiledRun Run = profileSource(R"(
    float m[16][16];
    float v[16];
    float out[16];
    int main() {
      for (int i = 0; i < 16; i = i + 1) {
        v[i] = i * 1.5;
        for (int j = 0; j < 16; j = j + 1) {
          m[i][j] = i * 0.25 + j;
        }
      }
      for (int i = 0; i < 16; i = i + 1) {
        float acc = 0.0;
        for (int j = 0; j < 16; j = j + 1) {
          acc = acc + m[i][j] * v[j];
        }
        out[i] = acc;
      }
      return 0;
    }
  )");
  for (const DynRegionSummary &S : Run.Dict->alphabet()) {
    EXPECT_LE(S.Cp, S.Work) << "cp must not exceed work";
    uint64_t ChildWork = 0;
    for (const auto &[C, Freq] : S.Children)
      ChildWork += Run.Dict->alphabet()[C].Work * Freq;
    EXPECT_LE(ChildWork, S.Work) << "children work must fit in parent work";
  }
  for (const RegionProfileEntry &E : Run.Profile->entries()) {
    if (!E.Executed)
      continue;
    EXPECT_GE(E.SelfParallelism, 1.0);
    EXPECT_GE(E.TotalParallelism, 1.0);
    EXPECT_GE(E.CoveragePct, 0.0);
    EXPECT_LE(E.CoveragePct, 100.0 + 1e-9);
  }
  // main's function region covers the whole program.
  const RegionProfileEntry *Main =
      findRegion(Run, RegionKind::Function, "main");
  ASSERT_NE(Main, nullptr);
  EXPECT_NEAR(Main->CoveragePct, 100.0, 1e-6);
  EXPECT_EQ(Main->TotalWork, Run.Profile->programWork());
}

TEST(Hcpa, DeadFrameArrayTimesDoNotLeakIntoLaterCalls) {
  // f reads its fresh (zeroed) local array before writing it. The previous
  // call's frame occupied the same words, but it is dead: its times must
  // not chain the loop's iterations together, even though the words share
  // a shadow page with live data.
  ProfiledRun Run = profileSource(DeadFrameArraySource);
  const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(L, nullptr);
  EXPECT_GE(L->SelfParallelism, 0.7 * 64);
  EXPECT_EQ(L->Class, LoopClass::Doall);
}

TEST(Hcpa, FunctionRegionsNestUnderCallers) {
  ProfiledRun Run = profileSource(R"(
    int square(int x) { return x * x; }
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) {
        s = s + square(i);
      }
      return s;
    }
  )");
  EXPECT_EQ(Run.Exec.ExitValue, 285);
  const RegionProfileEntry *Sq =
      findRegion(Run, RegionKind::Function, "square");
  ASSERT_NE(Sq, nullptr);
  EXPECT_EQ(Sq->Instances, 10u);
  // Region graph: square's Function region appears as a child of the loop
  // body region.
  bool FoundEdge = false;
  for (const RegionEdge &E : Run.Profile->edges()) {
    if (Run.M->Regions[E.Parent].Kind == RegionKind::Body &&
        E.Child == Sq->Id)
      FoundEdge = true;
  }
  EXPECT_TRUE(FoundEdge);
}

} // namespace

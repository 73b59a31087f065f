//===- tests/PlannerTest.cpp - planner and personalities ------------------===//

#include "TestUtil.h"

#include "planner/Personality.h"
#include "suite/SourceGenerator.h"
#include "support/Json.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

Plan planWith(const ProfiledRun &Run, const std::string &Name,
              PlannerOptions Opts = PlannerOptions()) {
  std::unique_ptr<Personality> P = makePersonality(Name);
  EXPECT_NE(P, nullptr);
  return P->plan(*Run.Profile, Opts);
}

/// A program with one hot parallel loop, one serial loop, and one tiny
/// parallel loop whose ideal whole-program speedup falls below the 0.1%
/// DOALL threshold.
const char *ThreeLoopSrc = R"(
  int a[2048];
  int b[64];
  int tiny[4];
  int main() {
    for (int i = 0; i < 2048; i = i + 1) {
      int x = a[i] + i;
      x = x * 3 + i + 1;
      x = x + x / 7;
      x = x * 2 - x / 5;
      x = x + x % 13 + 2;
      x = x * 3 + 1;
      x = x + x / 3;
      a[i] = x;
    }
    int c = b[0];
    for (int i = 1; i < 64; i = i + 1) {
      c = c * 3 + b[i] / (c % 7 + 2);
      c = c + c / 5;
      b[i] = c;
    }
    for (int i = 0; i < 3; i = i + 1) { tiny[i] = i; }
    return c % 100;
  }
)";

TEST(Planner, OpenMPSelectsOnlyTheHotParallelLoop) {
  ProfiledRun Run = profileSource(ThreeLoopSrc);
  Plan P = planWith(Run, "openmp");
  ASSERT_EQ(P.Items.size(), 1u);
  const StaticRegion &R = Run.M->Regions[P.Items[0].Region];
  EXPECT_EQ(R.Kind, RegionKind::Loop);
  const RegionProfileEntry &E = Run.Profile->entry(P.Items[0].Region);
  EXPECT_GT(E.SelfParallelism, 5.0);
  EXPECT_GT(E.CoveragePct, 50.0);
  EXPECT_GT(P.EstProgramSpeedup, 1.5);
}

TEST(Planner, PlanItemsOrderedByGain) {
  ProfiledRun Run = profileSource(R"(
    int a[256];
    int b[128];
    int main() {
      for (int i = 0; i < 256; i = i + 1) {
        int x = a[i] * 3 + i;
        x = x + x / 7;
        x = x * 2 + 1;
        a[i] = x;
      }
      for (int i = 0; i < 128; i = i + 1) {
        int x = b[i] * 5 + i;
        x = x + x / 3;
        b[i] = x;
      }
      return 0;
    }
  )");
  Plan P = planWith(Run, "openmp");
  ASSERT_EQ(P.Items.size(), 2u);
  EXPECT_GE(P.Items[0].GainFrac, P.Items[1].GainFrac);
  EXPECT_GE(P.Items[0].CoveragePct, P.Items[1].CoveragePct);
}

TEST(Planner, NoNestedSelections) {
  // Outer and inner loops both parallel: OpenMP takes at most one per
  // root-leaf path.
  ProfiledRun Run = profileSource(R"(
    int a[1024];
    int main() {
      for (int j = 0; j < 16; j = j + 1) {
        int y = j * 3;
        y = y + y / 7;
        y = y * 2 + 1;
        y = y + y % 13;
        y = y * 3 + j;
        y = y + y / 5;
        y = y * 2 + 3;
        y = y + y % 7;
        for (int i = 0; i < 64; i = i + 1) {
          int x = a[j * 64 + i] + y;
          x = x * 3 + i;
          x = x + x / 7;
          a[j * 64 + i] = x;
        }
      }
      return 0;
    }
  )");
  Plan P = planWith(Run, "openmp");
  for (const PlanItem &A : P.Items)
    for (const PlanItem &B : P.Items) {
      if (A.Region == B.Region)
        continue;
      for (RegionId R = Run.Profile->parent(A.Region); R != NoRegion;
           R = Run.Profile->parent(R))
        EXPECT_NE(R, B.Region) << "nested plan selections";
    }
}

TEST(Planner, DpPrefersChildrenWhenCollectivelyBetter) {
  // The ft/lu shape (paper §5.1): a DOACROSS parent that clears the SP
  // threshold and has the highest SINGLE gain, enclosing DOALL children
  // whose summed gain is higher. Generated through the suite's
  // ChildrenNest pattern, which is tuned to exactly this shape.
  BenchmarkSpec Spec;
  Spec.Name = "dpcase";
  Spec.Timesteps = 2;
  SiteSpec Nest;
  Nest.Kind = SiteKind::ChildrenNest;
  Nest.Iters = 12;
  Nest.InnerIters = 96;
  Nest.InnerCount = 3;
  Nest.Work = 10;
  Spec.add(Nest);
  GeneratedBenchmark GB = generateBenchmark(Spec);
  ProfiledRun Run = profileSource(GB.Source);

  Plan Dp = planWith(Run, "openmp");
  PlannerOptions GreedyOpts;
  GreedyOpts.Greedy = true;
  Plan Greedy = planWith(Run, "openmp", GreedyOpts);

  // Greedy takes the one parent; DP takes the three children.
  ASSERT_EQ(Greedy.Items.size(), 1u);
  ASSERT_EQ(Dp.Items.size(), 3u);
  for (const PlanItem &I : Dp.Items)
    EXPECT_EQ(candidateParent(*Run.Profile, I.Region),
              Greedy.Items[0].Region);
  // And the children collectively promise more.
  EXPECT_GT(Dp.EstProgramSpeedup, Greedy.EstProgramSpeedup);
}

TEST(Planner, ReductionLoopsNeedWork) {
  const char *Src = R"(
    int a[16];
    int main() {
      int s = 0;
      int c = 3;
      for (int t = 0; t < 64; t = t + 1) {
        c = c * 3 + c / (c % 7 + 2); // Serializes the outer loop.
        for (int i = 0; i < 16; i = i + 1) { s = s + a[i] + c; }
      }
      return (s + c) % 100;
    }
  )";
  ProfiledRun Run = profileSource(Src);
  PlannerOptions Strict;
  Strict.MinReductionWork = 1e7; // No loop has this much work.
  Plan None = planWith(Run, "openmp", Strict);
  for (const PlanItem &I : None.Items) {
    const StaticRegion &R = Run.M->Regions[I.Region];
    EXPECT_FALSE(R.HasReduction)
        << "underweight reduction loop selected";
  }
  PlannerOptions Lenient;
  Lenient.MinReductionWork = 0.0;
  Plan Some = planWith(Run, "openmp", Lenient);
  EXPECT_GT(Some.Items.size(), None.Items.size());
}

TEST(Planner, ExclusionListReplans) {
  ProfiledRun Run = profileSource(ThreeLoopSrc);
  Plan Original = planWith(Run, "openmp");
  ASSERT_FALSE(Original.Items.empty());
  PlannerOptions Opts;
  Opts.Excluded.insert(Original.Items[0].Region);
  Plan Replanned = planWith(Run, "openmp", Opts);
  EXPECT_FALSE(Replanned.contains(Original.Items[0].Region));
}

TEST(Planner, ThresholdSensitivity) {
  ProfiledRun Run = profileSource(ThreeLoopSrc);
  PlannerOptions Loose;
  Loose.MinSelfParallelism = 1.5;
  Loose.MinDoallSpeedupPct = 0.0001;
  Loose.MinDoacrossSpeedupPct = 0.0001;
  Plan LoosePlan = planWith(Run, "openmp", Loose);
  PlannerOptions Tight;
  Tight.MinSelfParallelism = 1e6;
  Plan TightPlan = planWith(Run, "openmp", Tight);
  EXPECT_TRUE(TightPlan.Items.empty());
  EXPECT_GE(LoosePlan.Items.size(), planWith(Run, "openmp").Items.size());
}

TEST(Planner, CilkAllowsNestingAndMoreRegions) {
  ProfiledRun Run = profileSource(R"(
    int a[1024];
    int main() {
      for (int j = 0; j < 16; j = j + 1) {
        for (int i = 0; i < 64; i = i + 1) {
          int x = a[j * 64 + i] * 3 + i;
          x = x + x / 7;
          x = x * 2 + 1;
          a[j * 64 + i] = x;
        }
      }
      return 0;
    }
  )");
  Plan OpenMP = planWith(Run, "openmp");
  Plan Cilk = planWith(Run, "cilk");
  EXPECT_GE(Cilk.Items.size(), OpenMP.Items.size());
}

TEST(Planner, WorkOnlyRanksByCoverage) {
  ProfiledRun Run = profileSource(ThreeLoopSrc);
  Plan P = planWith(Run, "work");
  ASSERT_GE(P.Items.size(), 2u);
  for (size_t I = 1; I < P.Items.size(); ++I)
    EXPECT_GE(P.Items[I - 1].CoveragePct, P.Items[I].CoveragePct);
  // The serial loop IS on the gprof list (that is its blind spot).
  bool HasSerial = false;
  for (const PlanItem &I : P.Items)
    HasSerial |= Run.Profile->entry(I.Region).SelfParallelism < 2.0;
  EXPECT_TRUE(HasSerial);
}

TEST(Planner, SelfPFilterDropsSerialRegions) {
  ProfiledRun Run = profileSource(ThreeLoopSrc);
  Plan P = planWith(Run, "selfp");
  for (const PlanItem &I : P.Items)
    EXPECT_GE(Run.Profile->entry(I.Region).SelfParallelism, 5.0);
  Plan Work = planWith(Run, "work");
  EXPECT_LT(P.Items.size(), Work.Items.size());
}

TEST(Planner, UnknownPersonalityRejected) {
  EXPECT_EQ(makePersonality("fortran"), nullptr);
  EXPECT_NE(makePersonality("openmp"), nullptr);
  EXPECT_NE(makePersonality("cilk"), nullptr);
  EXPECT_NE(makePersonality("work"), nullptr);
  EXPECT_NE(makePersonality("selfp"), nullptr);
}

TEST(Planner, PrintPlanFormat) {
  ProfiledRun Run = profileSource(ThreeLoopSrc);
  Plan P = planWith(Run, "openmp");
  std::string Text = printPlan(*Run.M, P);
  EXPECT_NE(Text.find("Self-P"), std::string::npos);
  EXPECT_NE(Text.find("Cov (%)"), std::string::npos);
  EXPECT_NE(Text.find("t.c ("), std::string::npos);
}

TEST(Planner, CilkCountsRecursiveCalleeUnderItsHeaviestCaller) {
  // fib's calls to itself outweigh both of its call sites; the tree skips
  // that self-edge, so fib hangs under tabulate's loop and the Cilk plan
  // does not count it a second time.
  std::string Source;
  ASSERT_TRUE(readFileToString(
      KREMLIN_EXAMPLES_DIR "/minic/recursion_demo.c", Source));
  ProfiledRun Run = profileSource(Source);
  const ParallelismProfile &P = *Run.Profile;
  const RegionProfileEntry *Fib = findRegion(Run, RegionKind::Function, "fib");
  ASSERT_NE(Fib, nullptr);
  RegionId Heaviest = NoRegion;
  uint64_t HeaviestWork = 0;
  for (const RegionEdge &E : P.edges())
    if (E.Child == Fib->Id && E.Parent != Fib->Id &&
        (Heaviest == NoRegion || E.Work > HeaviestWork)) {
      Heaviest = E.Parent;
      HeaviestWork = E.Work;
    }
  ASSERT_NE(Heaviest, NoRegion);
  EXPECT_EQ(P.parent(Fib->Id), Heaviest);
  RegionId Caller = candidateParent(P, Fib->Id);
  EXPECT_EQ(Run.M->Regions[Caller].Kind, RegionKind::Loop);
  EXPECT_EQ(Run.M->Functions[Run.M->Regions[Caller].Func].Name, "tabulate");
  EXPECT_LT(planWith(Run, "cilk").EstProgramSpeedup, 1000.0);
}

TEST(ProfileTree, BuildsCandidateTree) {
  ProfiledRun Run = profileSource(R"(
    int helper(int x) { return x * 3; }
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) { s = s + helper(i); }
      return s;
    }
  )");
  const ParallelismProfile &P = *Run.Profile;
  RegionId Root = P.rootRegion();
  EXPECT_EQ(Run.M->Regions[Root].Name, "main");
  ASSERT_FALSE(P.preorder().empty());
  EXPECT_EQ(P.preorder().front(), Root);
  // Every executed region once; a Body region sits under its own loop.
  std::set<RegionId> Seen;
  for (RegionId R : P.preorder()) {
    EXPECT_TRUE(Seen.insert(R).second);
    if (Run.M->Regions[R].Kind == RegionKind::Body) {
      EXPECT_EQ(P.parent(R), Run.M->Regions[R].Parent);
    }
  }
  for (const RegionProfileEntry &E : P.entries())
    EXPECT_EQ(Seen.count(E.Id), E.Executed ? 1u : 0u);
  // helper's nearest candidate ancestor is the loop (its heaviest caller
  // context).
  RegionId Helper = NoRegion;
  for (const StaticRegion &R : Run.M->Regions)
    if (R.Kind == RegionKind::Function && R.Name == "helper")
      Helper = R.Id;
  ASSERT_NE(Helper, NoRegion);
  EXPECT_EQ(Run.M->Regions[candidateParent(P, Helper)].Kind,
            RegionKind::Loop);
}

TEST(ProfileTree, RecursionDoesNotCycle) {
  // Self-recursion, then mutual recursion: each of even and odd is the
  // other's heaviest parent, so the cycle hangs under the root.
  for (const char *Src : {R"(
    int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
    int main() { return fact(10) % 1000; }
  )",
                          R"(
    int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
    int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
    int main() { return even(10); }
  )"}) {
    ProfiledRun Run = profileSource(Src);
    const ParallelismProfile &P = *Run.Profile;
    // Preorder terminates and visits each region at most once.
    std::set<RegionId> Seen;
    for (RegionId R : P.preorder())
      EXPECT_TRUE(Seen.insert(R).second);
    EXPECT_GE(Seen.size(), 2u); // main + a recursive function at least.
    for (const char *Name : {"even", "odd"}) {
      if (const RegionProfileEntry *E =
              findRegion(Run, RegionKind::Function, Name)) {
        EXPECT_EQ(P.parent(E->Id), P.rootRegion()) << Name;
      }
    }
  }
}

} // namespace

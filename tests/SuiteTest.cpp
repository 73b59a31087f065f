//===- tests/SuiteTest.cpp - workload suite tests -------------------------===//

#include "TestUtil.h"

#include "driver/KremlinDriver.h"
#include "suite/PaperSuite.h"
#include "suite/SourceGenerator.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

TEST(Generator, EmitsCompilableSource) {
  BenchmarkSpec Spec;
  Spec.Name = "mini";
  Spec.Timesteps = 2;
  SiteSpec Hot;
  Hot.Kind = SiteKind::HotDoall;
  Hot.Iters = 16;
  Hot.Work = 2;
  Hot.ManualOuter = true;
  Spec.add(Hot, 2);
  SiteSpec Red;
  Red.Kind = SiteKind::ReductionHeavy;
  Red.Iters = 32;
  Red.Work = 2;
  Spec.add(Red);
  GeneratedBenchmark GB = generateBenchmark(Spec);
  ProfiledRun Run = profileSource(GB.Source);
  EXPECT_TRUE(Run.Exec.Ok);
  // One loop record per site.
  EXPECT_EQ(GB.Loops.size(), 3u);
  EXPECT_EQ(GB.manualLines().size(), 2u);
}

TEST(Generator, LoopLinesMapToRegions) {
  BenchmarkSpec Spec;
  Spec.Name = "map";
  SiteSpec S;
  S.Kind = SiteKind::HotDoall;
  S.Iters = 8;
  S.Work = 1;
  S.ManualOuter = true;
  Spec.add(S, 3);
  GeneratedBenchmark GB = generateBenchmark(Spec);
  std::unique_ptr<Module> M = compileOrDie(GB.Source);
  std::vector<RegionId> Regions = loopRegionsAtLines(*M, GB.manualLines());
  ASSERT_EQ(Regions.size(), 3u);
  for (RegionId R : Regions) {
    EXPECT_EQ(M->Regions[R].Kind, RegionKind::Loop);
  }
  // Unknown lines are skipped, not fabricated.
  EXPECT_TRUE(loopRegionsAtLines(*M, {99999u}).empty());
}

TEST(Generator, NestKindsEmitInnerLoops) {
  BenchmarkSpec Spec;
  Spec.Name = "nests";
  SiteSpec Coarse;
  Coarse.Kind = SiteKind::CoarseNest;
  Coarse.Iters = 4;
  Coarse.InnerIters = 8;
  Coarse.InnerCount = 2;
  Coarse.Work = 2;
  Coarse.ManualInner = true;
  Spec.add(Coarse);
  SiteSpec Children;
  Children.Kind = SiteKind::ChildrenNest;
  Children.Iters = 4;
  Children.InnerIters = 8;
  Children.InnerCount = 3;
  Children.Work = 2;
  Children.ManualInner = true;
  Spec.add(Children);
  GeneratedBenchmark GB = generateBenchmark(Spec);
  // 1 outer + 2 inner, then 1 outer + 3 inner.
  EXPECT_EQ(GB.Loops.size(), 7u);
  unsigned Outers = 0, Inners = 0;
  for (const GeneratedLoop &L : GB.Loops)
    (L.IsOuter ? Outers : Inners) += 1;
  EXPECT_EQ(Outers, 2u);
  EXPECT_EQ(Inners, 5u);
  // Manual plan = the inner loops only.
  EXPECT_EQ(GB.manualLines().size(), 5u);
  ProfiledRun Run = profileSource(GB.Source);
  EXPECT_TRUE(Run.Exec.Ok);
}

TEST(Generator, SiteKindsHaveExpectedParallelism) {
  struct Case {
    SiteKind Kind;
    double MinSp, MaxSp;
  };
  const Case Cases[] = {
      {SiteKind::HotDoall, 20.0, 1e9},
      {SiteKind::SerialChain, 1.0, 2.0},
      {SiteKind::IlpSerial, 1.0, 2.5},
      {SiteKind::Doacross, 3.0, 25.0},
      {SiteKind::ReductionHeavy, 20.0, 1e9},
  };
  for (const Case &C : Cases) {
    BenchmarkSpec Spec;
    Spec.Name = "kind";
    SiteSpec S;
    S.Kind = C.Kind;
    S.Iters = 64;
    S.Work = C.Kind == SiteKind::Doacross ? 12 : 4;
    Spec.add(S);
    GeneratedBenchmark GB = generateBenchmark(Spec);
    ProfiledRun Run = profileSource(GB.Source);
    const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "k0");
    ASSERT_NE(L, nullptr) << siteKindName(C.Kind);
    EXPECT_GE(L->SelfParallelism, C.MinSp) << siteKindName(C.Kind);
    EXPECT_LE(L->SelfParallelism, C.MaxSp) << siteKindName(C.Kind);
  }
}

TEST(Generator, IlpSerialHasHighTotalParallelism) {
  // The §6.2 false-positive class: TP >= 5, SP ~ 1.
  BenchmarkSpec Spec;
  Spec.Name = "ilp";
  SiteSpec S;
  S.Kind = SiteKind::IlpSerial;
  S.Iters = 32;
  Spec.add(S);
  GeneratedBenchmark GB = generateBenchmark(Spec);
  ProfiledRun Run = profileSource(GB.Source);
  const RegionProfileEntry *L = findRegion(Run, RegionKind::Loop, "k0");
  ASSERT_NE(L, nullptr);
  EXPECT_GE(L->TotalParallelism, 4.0);
  EXPECT_LT(L->SelfParallelism, 3.0);
}

TEST(PaperSuite, AllBenchmarksCompileAndRun) {
  for (const std::string &Name : paperBenchmarkNames()) {
    GeneratedBenchmark GB = generatePaperBenchmark(Name);
    LowerResult LR = compileMiniC(GB.Source, Name + ".c");
    ASSERT_TRUE(LR.succeeded())
        << Name << ": " << (LR.Errors.empty() ? "" : LR.Errors[0]);
    EXPECT_TRUE(moduleVerifies(*LR.M)) << Name;
  }
}

TEST(PaperSuite, TimestepLoopIsSerial) {
  // Every benchmark's outer time-step loop reads last step's writes, so
  // it must stay below the planner's SP threshold. (It is not exactly 1:
  // independent kernels pipeline a little across steps, so SP approaches
  // the step count — but never the eligibility cutoff.)
  GeneratedBenchmark GB = generatePaperBenchmark("cg");
  ProfiledRun Run = profileSource(GB.Source);
  const RegionProfileEntry *Timestep =
      findRegion(Run, RegionKind::Loop, "main");
  ASSERT_NE(Timestep, nullptr);
  EXPECT_LT(Timestep->SelfParallelism, 5.0);
}

TEST(PaperSuite, PlanSizesMatchPaper) {
  // Figure 6(a), per benchmark — the headline reproduction result. Run on
  // the three smallest benchmarks to keep this test fast; kremlin-bench
  // prints the full table, and Cli.PaperFiguresMatchCommittedBaseline
  // gates every row of it.
  for (const char *NameCStr : {"ep", "is", "ammp"}) {
    std::string Name = NameCStr;
    GeneratedBenchmark GB = generatePaperBenchmark(Name);
    KremlinDriver Driver;
    DriverResult R = Driver.runOnSource(GB.Source, Name + ".c");
    ASSERT_TRUE(R.succeeded()) << Name;
    PaperFacts Facts = paperFacts(Name);
    EXPECT_EQ(R.ThePlan.Items.size(), Facts.KremlinPlanSize) << Name;
    std::vector<RegionId> Manual =
        loopRegionsAtLines(*R.M, GB.manualLines());
    EXPECT_EQ(Manual.size(), Facts.ManualPlanSize) << Name;
    unsigned Overlap = 0;
    for (RegionId M : Manual)
      Overlap += R.ThePlan.contains(M);
    EXPECT_EQ(Overlap, Facts.Overlap) << Name;
  }
}

TEST(PaperSuite, TrackingMatchesFigure3Shape) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(trackingSource(), "tracking.c");
  ASSERT_TRUE(R.succeeded());
  const Plan &P = R.ThePlan;
  ASSERT_GE(P.Items.size(), 5u);
  // Rows 1-2: the imageBlur loops with Self-P in the hundreds.
  EXPECT_GT(P.Items[0].SelfP, 100.0);
  EXPECT_GT(P.Items[1].SelfP, 100.0);
  // Row 3: getInterpPatch — few iterations, Self-P in the tens, but still
  // ranked third by coverage (the paper's signature row).
  EXPECT_LT(P.Items[2].SelfP, 60.0);
  EXPECT_GT(P.Items[2].CoveragePct, 5.0);
  // Rows 4-5: the Sobel loops.
  EXPECT_GT(P.Items[3].SelfP, 80.0);
  EXPECT_GT(P.Items[4].SelfP, 80.0);
  // fillFeatures' serial i/j nest must NOT be recommended; its innermost
  // k loop may be (Figure 2's localization).
  for (const PlanItem &I : P.Items) {
    const RegionProfileEntry &E = R.Profile->entry(I.Region);
    EXPECT_GT(E.SelfParallelism, 5.0);
  }
}

TEST(PaperSuite, FactsTableConsistent) {
  unsigned Manual = 0, Kremlin = 0, Overlap = 0;
  for (const std::string &Name : paperBenchmarkNames()) {
    PaperFacts F = paperFacts(Name);
    Manual += F.ManualPlanSize;
    Kremlin += F.KremlinPlanSize;
    Overlap += F.Overlap;
    EXPECT_LE(F.Overlap, F.ManualPlanSize);
    EXPECT_LE(F.Overlap, F.KremlinPlanSize);
  }
  // Figure 6(a) totals.
  EXPECT_EQ(Manual, 211u);
  EXPECT_EQ(Kremlin, 134u);
  EXPECT_EQ(Overlap, 116u);
}

} // namespace

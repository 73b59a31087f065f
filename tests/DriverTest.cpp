//===- tests/DriverTest.cpp - end-to-end pipeline tests -------------------===//

#include "TestUtil.h"

#include "driver/KremlinDriver.h"
#include "suite/PaperSuite.h"
#include "support/Telemetry.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

const char *PipelineSrc = R"(
  int a[128];
  int main() {
    for (int i = 0; i < 128; i = i + 1) {
      int x = a[i] + i;
      x = x * 3 + 1;
      x = x + x / 7;
      x = x * 2 - x / 5;
      a[i] = x;
    }
    return a[3] % 100;
  }
)";

TEST(Driver, FullPipelineProducesPlan) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(R.succeeded());
  EXPECT_TRUE(R.Exec.Ok);
  EXPECT_GT(R.Exec.DynInstructions, 128u);
  ASSERT_NE(R.Dict, nullptr);
  EXPECT_GT(R.Dict->numDynamicRegions(), 128u);
  ASSERT_NE(R.Profile, nullptr);
  ASSERT_EQ(R.ThePlan.Items.size(), 1u);
  EXPECT_EQ(R.ThePlan.Personality, "openmp");
  EXPECT_GT(R.ThePlan.EstProgramSpeedup, 1.5);
}

TEST(Driver, ParseErrorsPropagate) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource("int main( { return 0; }", "bad.c");
  EXPECT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
}

TEST(Driver, SemanticErrorsPropagate) {
  KremlinDriver Driver;
  DriverResult R =
      Driver.runOnSource("int main() { return ghost; }", "bad.c");
  EXPECT_FALSE(R.succeeded());
}

TEST(Driver, ExecutionErrorsPropagate) {
  KremlinDriver Driver;
  Driver.options().Interp.MaxSteps = 100;
  DriverResult R = Driver.runOnSource(
      "int main() { int s = 0; while (1) { s = s + 1; } return s; }",
      "loop.c");
  EXPECT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
  // The failure is rendered as a structured Status naming the stage and
  // the input file, and carries a resource-exhausted code (step budget).
  EXPECT_NE(R.Errors[0].find("stage 'execute' failed"), std::string::npos)
      << R.Errors[0];
  EXPECT_NE(R.Errors[0].find("loop.c"), std::string::npos) << R.Errors[0];
  EXPECT_FALSE(R.Err.ok());
  EXPECT_EQ(R.Err.code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(R.failedStage(), "execute");
}

TEST(Driver, UnknownPersonalityFails) {
  DriverOptions Opts;
  Opts.PersonalityName = "mystery";
  KremlinDriver Driver(Opts);
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  EXPECT_FALSE(R.succeeded());
}

TEST(Driver, ReplanWithExclusions) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(R.succeeded());
  ASSERT_FALSE(R.ThePlan.Items.empty());
  PlannerOptions Opts = Driver.options().Planner;
  Opts.Excluded.insert(R.ThePlan.Items[0].Region);
  Plan Replanned = Driver.replan(R, Opts);
  EXPECT_FALSE(Replanned.contains(R.ThePlan.Items[0].Region));
}

TEST(Driver, ReplanDifferentPersonality) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(R.succeeded());
  Plan Work = Driver.replan(R, PlannerOptions(), "work");
  EXPECT_EQ(Work.Personality, "work");
  EXPECT_GE(Work.Items.size(), R.ThePlan.Items.size());
}

TEST(Driver, RunOnPrebuiltModule) {
  LowerResult LR = compileMiniC(PipelineSrc, "p.c");
  ASSERT_TRUE(LR.succeeded());
  KremlinDriver Driver;
  DriverResult R = Driver.runOnModule(std::move(LR.M));
  EXPECT_TRUE(R.succeeded());
  EXPECT_EQ(R.ThePlan.Items.size(), 1u);
}

TEST(Driver, DeterministicAcrossRuns) {
  KremlinDriver Driver;
  DriverResult A = Driver.runOnSource(PipelineSrc, "p.c");
  DriverResult B = Driver.runOnSource(PipelineSrc, "p.c");
  ASSERT_TRUE(A.succeeded());
  ASSERT_TRUE(B.succeeded());
  EXPECT_EQ(A.Exec.DynInstructions, B.Exec.DynInstructions);
  EXPECT_EQ(A.Dict->alphabet().size(), B.Dict->alphabet().size());
  ASSERT_EQ(A.ThePlan.Items.size(), B.ThePlan.Items.size());
  for (size_t I = 0; I < A.ThePlan.Items.size(); ++I) {
    EXPECT_EQ(A.ThePlan.Items[I].Region, B.ThePlan.Items[I].Region);
    EXPECT_DOUBLE_EQ(A.ThePlan.Items[I].SelfP, B.ThePlan.Items[I].SelfP);
  }
}

TEST(Driver, InstrumentStatsReported) {
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource(R"(
    int a[32];
    int main() {
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; }
      return s;
    }
  )", "p.c");
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(R.Instrument.NumInductionUpdates, 1u);
  EXPECT_EQ(R.Instrument.NumReductionUpdates, 1u);
  EXPECT_EQ(R.Instrument.NumCondBranches, 1u);
  EXPECT_TRUE(R.Instrument.Warnings.empty());
}

TEST(Driver, PublishesObservedRegionDepthAndShadowPeak) {
  // Three nested regions: main's function region, its loop, the loop body.
  // buf covers a whole shadow page, which is released when main returns,
  // so the shadow high-water mark ends above the live bytes.
  DriverOptions Opts;
  Opts.Runtime.MaxRegionDepth = 5;
  KremlinDriver Driver(Opts);
  DriverResult R = Driver.runOnSource(R"(
    int main() {
      int buf[8192];
      for (int i = 0; i < 8192; i = i + 1) { buf[i] = i; }
      return buf[8191];
    }
  )", "nest.c");
  ASSERT_TRUE(R.succeeded()) << R.Err.toString();
  telemetry::Registry &Reg = telemetry::Registry::global();
  EXPECT_EQ(Reg.gauge("rt.max_region_depth").value(), 3.0);
  EXPECT_EQ(Reg.gauge("rt.region_depth_cap").value(), 5.0);
  EXPECT_GT(Reg.gauge("shadow.peak_bytes").value(),
            Reg.gauge("shadow.bytes").value());
}

TEST(Driver, PublishesExecutePipelineStalls) {
  // A profiled run reports how long the HCPA consumer waited on an empty
  // event ring and how often the interpreter slept on a full one, on
  // ExecResult and summed into the registry. The wait happens inside the
  // execute stage, so it cannot exceed that stage's time.
  telemetry::Registry &Reg = telemetry::Registry::global();
  telemetry::Counter &Wait = Reg.counter("rt.consumer_wait_us");
  telemetry::Counter &Sleeps = Reg.counter("rt.producer_sleeps");
  uint64_t WaitBefore = Wait.value(), SleepsBefore = Sleeps.value();
  KremlinDriver Driver;
  DriverResult R =
      Driver.runOnSource(generatePaperBenchmark("is").Source, "is.c");
  ASSERT_TRUE(R.succeeded()) << R.Err.toString();
  double ExecuteMs = -1.0;
  for (const auto &[Stage, Ms] : R.StageMs)
    if (Stage == "execute")
      ExecuteMs = Ms;
  ASSERT_GE(ExecuteMs, 0.0);
  EXPECT_LE(static_cast<double>(R.Exec.ConsumerWaitUs) / 1000.0, ExecuteMs);
  EXPECT_EQ(Wait.value() - WaitBefore, R.Exec.ConsumerWaitUs);
  EXPECT_EQ(Sleeps.value() - SleepsBefore, R.Exec.ProducerSleeps);
}

} // namespace

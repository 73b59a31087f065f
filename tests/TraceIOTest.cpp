//===- tests/TraceIOTest.cpp - trace serialization + aggregation ----------===//

#include "TestUtil.h"

#include "aggregate/ProfileMerge.h"
#include "compress/TraceIO.h"
#include "support/FaultInjection.h"

#include <cstdio>

using namespace kremlin;
using namespace kremlin::test;

namespace {

const char *TwoPhaseSrc = R"(
  int a[128];
  int main() {
    for (int i = 0; i < 128; i = i + 1) {
      int x = a[i] + i;
      x = x * 3 + 1;
      x = x + x / 7;
      a[i] = x;
    }
    int c = 3;
    for (int i = 0; i < 32; i = i + 1) {
      c = c * 3 + c / (c % 7 + 2);
    }
    return c % 100;
  }
)";

TEST(TraceIO, RoundTripPreservesEverything) {
  ProfiledRun Run = profileSource(TwoPhaseSrc);
  std::string Text = writeTrace(*Run.Dict);
  Expected<DictionaryCompressor> R = readTrace(Text);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  ASSERT_EQ(R->alphabet().size(), Run.Dict->alphabet().size());
  for (size_t C = 0; C < R->alphabet().size(); ++C)
    EXPECT_TRUE(R->alphabet()[C] == Run.Dict->alphabet()[C])
        << "char " << C;
  EXPECT_EQ(R->roots(), Run.Dict->roots());
  EXPECT_EQ(R->numDynamicRegions(), Run.Dict->numDynamicRegions());
}

TEST(TraceIO, ProfileFromReloadedTraceIsIdentical) {
  ProfiledRun Run = profileSource(TwoPhaseSrc);
  Expected<DictionaryCompressor> R = readTrace(writeTrace(*Run.Dict));
  ASSERT_TRUE(R.ok());
  ParallelismProfile Reloaded(*Run.M, *R);
  ASSERT_EQ(Reloaded.entries().size(), Run.Profile->entries().size());
  for (size_t I = 0; I < Reloaded.entries().size(); ++I) {
    const RegionProfileEntry &A = Run.Profile->entries()[I];
    const RegionProfileEntry &B = Reloaded.entries()[I];
    EXPECT_EQ(A.TotalWork, B.TotalWork);
    EXPECT_EQ(A.Instances, B.Instances);
    EXPECT_DOUBLE_EQ(A.SelfParallelism, B.SelfParallelism);
    EXPECT_DOUBLE_EQ(A.CoveragePct, B.CoveragePct);
  }
}

TEST(TraceIO, FileRoundTrip) {
  ProfiledRun Run = profileSource(TwoPhaseSrc);
  std::string Path = ::testing::TempDir() + "/kremlin_trace_test.txt";
  ASSERT_TRUE(writeTraceFile(*Run.Dict, Path).ok());
  Expected<DictionaryCompressor> R = readTraceFile(Path);
  EXPECT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(R->alphabet().size(), Run.Dict->alphabet().size());
  std::remove(Path.c_str());
}

TEST(TraceIO, RejectsMalformedInput) {
  EXPECT_FALSE(readTrace("").ok());
  EXPECT_FALSE(readTrace("not-a-trace 1\n").ok());
  EXPECT_FALSE(readTrace("kremlin-trace 2\n").ok());
  EXPECT_FALSE(readTrace("kremlin-trace 1\nregions banana\n").ok());
  // Child referencing itself / a later char violates leaves-first order.
  EXPECT_FALSE(
      readTrace("kremlin-trace 1\nregions 1\nentry 0 10 5 1 0 2\n").ok());
  // Root index out of range.
  EXPECT_FALSE(
      readTrace("kremlin-trace 1\nregions 1\nentry 0 10 5 0\nroot 7 1\n")
          .ok());
  EXPECT_FALSE(readTraceFile("/nonexistent/path/trace.txt").ok());
}

TEST(TraceIO, ErrorsCarryStageAndCode) {
  Status S = readTrace("kremlin-trace 1\nregions 1\n").status();
  EXPECT_EQ(S.code(), ErrorCode::DecodeError);
  EXPECT_EQ(S.stage(), "trace-decode");
  EXPECT_NE(S.toString().find("trace-decode"), std::string::npos);

  Status FileS = readTraceFile("/nonexistent/path/trace.txt").status();
  EXPECT_EQ(FileS.code(), ErrorCode::IoError);
  EXPECT_EQ(FileS.input(), "/nonexistent/path/trace.txt");
}

TEST(TraceIO, AcceptsMinimalValidTrace) {
  Expected<DictionaryCompressor> R =
      readTrace("kremlin-trace 1\nregions 1\n"
                "entry 0 10 5 0\nroot 0 1\ndynregions 4\n");
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(R->alphabet().size(), 1u);
  EXPECT_EQ(R->numDynamicRegions(), 4u);
  EXPECT_EQ(R->computeMultiplicities()[0], 1u);
}

// --- Schema v2: source metadata + version gate --------------------------------

TEST(TraceIO, V2RoundTripsSourceMetadata) {
  ProfiledRun Run = profileSource(TwoPhaseSrc);
  TraceMeta Out;
  Out.Source = "two_phase.c";
  std::string Text = writeTrace(*Run.Dict, Out);
  EXPECT_EQ(Text.rfind("kremlin-trace 2\n", 0), 0u);
  EXPECT_NE(Text.find("source two_phase.c\n"), std::string::npos);

  TraceMeta In;
  Expected<DictionaryCompressor> R = readTrace(Text, &In);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(In.Source, "two_phase.c");
  EXPECT_EQ(R->numDynamicRegions(), Run.Dict->numDynamicRegions());

  // v1 documents (no source line) still parse, with empty metadata.
  TraceMeta Old;
  Expected<DictionaryCompressor> V1 = readTrace(
      "kremlin-trace 1\nregions 1\nentry 0 10 5 0\nroot 0 1\ndynregions 4\n",
      &Old);
  ASSERT_TRUE(V1.ok()) << V1.status().toString();
  EXPECT_TRUE(Old.Source.empty());
}

TEST(TraceIO, RejectsVersionMismatchNamingBothVersions) {
  Expected<DictionaryCompressor> R = readTrace(
      "kremlin-trace 9\nregions 1\nentry 0 10 5 0\nroot 0 1\ndynregions 1\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::DecodeError);
  std::string Message = R.status().toString();
  EXPECT_NE(Message.find("9"), std::string::npos) << Message;
  EXPECT_NE(Message.find("2"), std::string::npos) << Message;
}

TEST(TraceIO, SizeBudgetTripsResourceExhausted) {
  ProfiledRun Run = profileSource(TwoPhaseSrc);
  std::string Path = ::testing::TempDir() + "/kremlin_budget_test.prof";
  ASSERT_TRUE(writeTraceFile(*Run.Dict, Path).ok());

  TraceReadLimits Tight;
  Tight.MaxBytes = 16;
  Expected<DictionaryCompressor> R = readTraceFile(Path, nullptr, Tight);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(R.status().input(), Path);
  EXPECT_NE(R.status().toString().find("--max-profile-mb"),
            std::string::npos);

  // A budget at least the file size admits the read.
  TraceReadLimits Roomy;
  Roomy.MaxBytes = 64ull << 20;
  EXPECT_TRUE(readTraceFile(Path, nullptr, Roomy).ok());
  std::remove(Path.c_str());
}

TEST(TraceIO, IngestFaultDrillFailsReadsCleanly) {
  ProfiledRun Run = profileSource(TwoPhaseSrc);
  std::string Path = ::testing::TempDir() + "/kremlin_fault_test.prof";
  ASSERT_TRUE(writeTraceFile(*Run.Dict, Path).ok());

  ASSERT_TRUE(fault::configure("ingest:1.0"));
  Expected<DictionaryCompressor> R = readTraceFile(Path);
  fault::reset();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::FaultInjected);
  EXPECT_TRUE(readTraceFile(Path).ok());
  std::remove(Path.c_str());
}

// --- Multi-run aggregation (§2.4) ---------------------------------------------

TEST(Aggregation, TwoRunsDoubleTheTotals) {
  std::unique_ptr<Module> M = compileOrDie(TwoPhaseSrc);
  instrumentModule(*M);
  DictionaryCompressor D1, D2;
  {
    KremlinConfig Cfg;
    KremlinRuntime RT(Cfg, D1);
    Interpreter I(*M);
    ASSERT_TRUE(I.run(&RT).Ok);
  }
  {
    KremlinConfig Cfg;
    KremlinRuntime RT(Cfg, D2);
    Interpreter I(*M);
    ASSERT_TRUE(I.run(&RT).Ok);
  }
  ParallelismProfile Single(*M, D1);
  DictionaryCompressor Merged = aggregate::mergeProfiles({&D1, &D2});
  ParallelismProfile Both(*M, Merged);
  EXPECT_EQ(Both.programWork(), 2 * Single.programWork());
  for (size_t I = 0; I < Both.entries().size(); ++I) {
    const RegionProfileEntry &S = Single.entries()[I];
    const RegionProfileEntry &B = Both.entries()[I];
    EXPECT_EQ(B.TotalWork, 2 * S.TotalWork);
    EXPECT_EQ(B.Instances, 2 * S.Instances);
    // Relative metrics are unchanged for identical runs.
    if (S.Executed) {
      EXPECT_NEAR(B.CoveragePct, S.CoveragePct, 1e-9);
      EXPECT_NEAR(B.SelfParallelism, S.SelfParallelism, 1e-9);
    }
  }
}

TEST(Aggregation, CombinesRunsWithDifferentBehaviour) {
  // Same module, but the second run came through a trace file (the
  // realistic aggregation workflow): profile + save, profile + save,
  // load both, aggregate.
  std::unique_ptr<Module> M = compileOrDie(TwoPhaseSrc);
  instrumentModule(*M);
  DictionaryCompressor D1;
  KremlinConfig Cfg;
  {
    KremlinRuntime RT(Cfg, D1);
    Interpreter I(*M);
    ASSERT_TRUE(I.run(&RT).Ok);
  }
  Expected<DictionaryCompressor> Reloaded = readTrace(writeTrace(D1));
  ASSERT_TRUE(Reloaded.ok());
  DictionaryCompressor Merged = aggregate::mergeProfiles({&D1, &*Reloaded});
  ParallelismProfile Agg(*M, Merged);
  ParallelismProfile One(*M, D1);
  EXPECT_EQ(Agg.programWork(), 2 * One.programWork());
  EXPECT_EQ(Agg.rootRegion(), One.rootRegion());
}

} // namespace

//===- tests/FaultInjectionTest.cpp - KREMLIN_FAULT machinery tests -------===//
//
// The fault-injection harness itself: spec parsing, deterministic draws,
// and — the point of the exercise — that each injection site surfaces as a
// clean Status through the layer that hosts it (shadow memory, trace
// decode, driver stages) instead of crashing.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "compress/TraceIO.h"
#include "driver/KremlinDriver.h"
#include "rt/ShadowMemory.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <vector>

using namespace kremlin;

namespace {

/// Every test leaves the process with injection disabled, whatever happens.
struct FaultGuard {
  ~FaultGuard() { fault::reset(); }
};

TEST(FaultInjection, ConfigureAndReset) {
  FaultGuard Guard;
  EXPECT_TRUE(fault::configure("alloc:0.5"));
  EXPECT_TRUE(fault::enabled());
  EXPECT_EQ(fault::activeSpec(), "alloc:0.5");
  fault::reset();
  EXPECT_FALSE(fault::enabled());
  EXPECT_EQ(fault::activeSpec(), "");
  EXPECT_FALSE(fault::shouldFail(fault::Site::Alloc));
}

TEST(FaultInjection, EmptySpecDeactivates) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("trace_corrupt"));
  EXPECT_TRUE(fault::configure(""));
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultInjection, MalformedSpecsAreRejected) {
  FaultGuard Guard;
  EXPECT_FALSE(fault::configure("alloc:2.0"));    // p out of [0,1]
  EXPECT_FALSE(fault::configure("alloc:banana")); // p not a number
  EXPECT_FALSE(fault::configure("frobnicate"));   // unknown site
  EXPECT_FALSE(fault::configure("stage:"));       // stage needs a name
  // A malformed spec must not leave injection half-armed.
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultInjection, BareSiteNameAlwaysFires) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("trace_corrupt"));
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(fault::shouldFail(fault::Site::TraceCorrupt));
  // Sites not named in the spec never fire.
  EXPECT_FALSE(fault::shouldFail(fault::Site::Alloc));
  EXPECT_FALSE(fault::shouldFail(fault::Site::BenchThrow));
}

TEST(FaultInjection, DrawsAreSeedDeterministic) {
  FaultGuard Guard;
  auto Draw = [](uint64_t Seed) {
    EXPECT_TRUE(fault::configure("alloc:0.3", Seed));
    std::vector<bool> Seq;
    for (int I = 0; I < 200; ++I)
      Seq.push_back(fault::shouldFail(fault::Site::Alloc));
    return Seq;
  };
  std::vector<bool> A = Draw(42);
  std::vector<bool> B = Draw(42);
  EXPECT_EQ(A, B) << "same seed must replay the same fire/no-fire sequence";
  // Both outcomes occur at p=0.3 over 200 draws.
  EXPECT_NE(std::count(A.begin(), A.end(), true), 0);
  EXPECT_NE(std::count(A.begin(), A.end(), false), 0);

  std::vector<bool> C = Draw(43);
  EXPECT_NE(A, C) << "different seeds should diverge";
}

TEST(FaultInjection, StageSpecMatchesExactName) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("stage:execute"));
  EXPECT_TRUE(fault::stageShouldFail("execute"));
  EXPECT_FALSE(fault::stageShouldFail("parse"));
  EXPECT_FALSE(fault::stageShouldFail("exec"));
}

TEST(FaultInjection, CombinedSpecArmsEverySite) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("alloc:1.0,stage:plan,trace_corrupt"));
  EXPECT_TRUE(fault::shouldFail(fault::Site::Alloc));
  EXPECT_TRUE(fault::shouldFail(fault::Site::TraceCorrupt));
  EXPECT_TRUE(fault::stageShouldFail("plan"));
  EXPECT_FALSE(fault::stageShouldFail("execute"));
}

// --- Propagation: each site must surface as a Status, not a crash. ------

TEST(FaultInjection, AllocFaultSurfacesThroughShadowMemory) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("alloc"));
  ShadowMemory SM(/*NumLevels=*/4, /*SegmentWords=*/64);
  // A store's first touch allocates the page, and the fault refuses it.
  EXPECT_EQ(SM.wordCellsForWrite(0), nullptr);
  EXPECT_FALSE(SM.status().ok());
  EXPECT_EQ(SM.status().code(), ErrorCode::FaultInjected);
  EXPECT_EQ(SM.allocatedSegments(), 0u);
  // The dropped write leaves no page, so the word reads as time 0 at every
  // level; no crash, no partial state.
  EXPECT_EQ(SM.wordCells(0), nullptr);
}

TEST(FaultInjection, TraceCorruptFaultSurfacesThroughDecode) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("trace_corrupt"));
  Expected<DictionaryCompressor> R = readTrace(
      "kremlin-trace 1\nregions 1\nentry 0 10 5 0\nroot 0 1\ndynregions 1\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::FaultInjected);
  EXPECT_EQ(R.status().stage(), "trace-decode");

  fault::reset();
  // The identical text decodes cleanly once injection is off.
  EXPECT_TRUE(readTrace("kremlin-trace 1\nregions 1\nentry 0 10 5 0\n"
                        "root 0 1\ndynregions 1\n")
                  .ok());
}

TEST(FaultInjection, StageFaultSurfacesThroughDriver) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("stage:execute"));
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource("int main() { return 0; }", "tiny.c");
  EXPECT_FALSE(R.succeeded());
  EXPECT_EQ(R.Err.code(), ErrorCode::FaultInjected);
  EXPECT_EQ(R.failedStage(), "execute");
  EXPECT_EQ(R.Err.input(), "tiny.c");

  fault::reset();
  DriverResult Clean = Driver.runOnSource("int main() { return 0; }",
                                          "tiny.c");
  EXPECT_TRUE(Clean.succeeded()) << Clean.Err.toString();
}

TEST(FaultInjection, EarlyStageFaultStopsThePipeline) {
  FaultGuard Guard;
  ASSERT_TRUE(fault::configure("stage:parse"));
  KremlinDriver Driver;
  DriverResult R = Driver.runOnSource("int main() { return 0; }", "tiny.c");
  EXPECT_FALSE(R.succeeded());
  EXPECT_EQ(R.failedStage(), "parse");
  // Nothing downstream ran: no profiled execution, no compressed trace.
  EXPECT_EQ(R.Dict, nullptr);
  EXPECT_EQ(R.Exec.DynInstructions, 0u);
}

} // namespace

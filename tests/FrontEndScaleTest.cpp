//===- tests/FrontEndScaleTest.cpp - front-end cost vs program size -------===//
//
// Size guard for the static front end: instrument and analyze must cost in
// proportion to the function they run on. Each stage is timed on one
// generated kernel of K = 50, 100, 200 and 400 loop sites, and the ratio
// t(400)/t(50) is bounded: linear cost reads about 8x over the three
// doublings, quadratic about 64x.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticDependence.h"
#include "suite/SourceGenerator.h"
#include "support/StringUtils.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <limits>

using namespace kremlin;
using namespace kremlin::test;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

TEST(FrontEndScale, InstrumentAndAnalyzeGrowLinearlyWithKernelSize) {
  const unsigned Sizes[] = {50, 100, 200, 400};
  constexpr size_t NumSizes = sizeof(Sizes) / sizeof(Sizes[0]);
  // Three doublings at an average of at most 3x each.
  constexpr double MaxRatio = 27.0;
  double InstrumentMs[NumSizes], AnalyzeMs[NumSizes];
  for (size_t S = 0; S < NumSizes; ++S) {
    std::unique_ptr<Module> Lowered = compileOrDie(
        generateBenchmark(cyclingSiteSpec(Sizes[S], Sizes[S])).Source,
        "kernel.c");
    InstrumentMs[S] = AnalyzeMs[S] = std::numeric_limits<double>::infinity();
    for (unsigned Rep = 0; Rep < 3; ++Rep) {
      Module M = *Lowered;
      Clock::time_point T0 = Clock::now();
      instrumentModule(M);
      InstrumentMs[S] = std::min(InstrumentMs[S], msSince(T0));
      T0 = Clock::now();
      StaticAnalysisResult R = analyzeModuleDependence(M);
      AnalyzeMs[S] = std::min(AnalyzeMs[S], msSince(T0));
      ASSERT_FALSE(R.Loops.empty());
    }
  }
  auto Check = [&](const char *Stage, const double *Ms) {
    std::string Doublings;
    for (size_t S = 1; S < NumSizes; ++S)
      Doublings += formatString(" %u->%u: %.2fx", Sizes[S - 1], Sizes[S],
                                Ms[S] / Ms[S - 1]);
    double Ratio = Ms[NumSizes - 1] / Ms[0];
    EXPECT_LE(Ratio, MaxRatio) << formatString(
        "%s grows faster than linearly with the kernel size: t(%u)/t(%u) = "
        "%.1f (%.2f ms -> %.2f ms); per doubling:%s",
        Stage, Sizes[NumSizes - 1], Sizes[0], Ratio, Ms[0],
        Ms[NumSizes - 1], Doublings.c_str());
  };
  Check("instrument", InstrumentMs);
  Check("analyze", AnalyzeMs);
}

} // namespace

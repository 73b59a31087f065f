//===- tests/FrontEndScaleTest.cpp - front-end cost vs program size -------===//
//
// Size guards for the static front end. Instrument and analyze must cost in
// proportion to the function they run on: each stage is timed on one
// generated kernel of K = 50, 100, 200 and 400 loop sites. Lower must cost
// in proportion to the program: it is timed on programs of 50, 100, 200
// and 400 functions. Each ratio t(400)/t(50) is bounded: linear cost reads
// about 8x over the three doublings, quadratic about 64x.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticDependence.h"
#include "parser/Lower.h"
#include "parser/Parser.h"
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

const unsigned Sizes[] = {50, 100, 200, 400};
constexpr size_t NumSizes = sizeof(Sizes) / sizeof(Sizes[0]);
// Three doublings at an average of at most 3x each.
constexpr double MaxRatio = 27.0;

/// Fails when \p Ms[I], the time at Sizes[I], grows faster than linearly.
void expectLinear(const char *Stage, const char *Unit, const double *Ms) {
  std::string Doublings;
  for (size_t S = 1; S < NumSizes; ++S)
    Doublings += formatString(" %u->%u: %.2fx", Sizes[S - 1], Sizes[S],
                              Ms[S] / Ms[S - 1]);
  double Ratio = Ms[NumSizes - 1] / Ms[0];
  EXPECT_LE(Ratio, MaxRatio) << formatString(
      "%s grows faster than linearly with the %s: t(%u)/t(%u) = %.1f "
      "(%.2f ms -> %.2f ms); per doubling:%s",
      Stage, Unit, Sizes[NumSizes - 1], Sizes[0], Ratio, Ms[0],
      Ms[NumSizes - 1], Doublings.c_str());
}

TEST(FrontEndScale, InstrumentAndAnalyzeGrowLinearlyWithKernelSize) {
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
  expectLinear("instrument", "kernel size", InstrumentMs);
  expectLinear("analyze", "kernel size", AnalyzeMs);
}

/// \p NumFuncs functions, each taking \p Params parameters of its own
/// names, so the name table grows with the function count while each
/// function stays the same size.
std::string manyFunctionsSource(unsigned NumFuncs, unsigned Params) {
  std::string Source;
  for (unsigned F = 0; F < NumFuncs; ++F) {
    Source += formatString("int f%u(", F);
    for (unsigned P = 0; P < Params; ++P)
      Source += formatString("%sint p%u_%u", P ? ", " : "", F, P);
    Source += formatString(") { return p%u_0; }\n", F);
  }
  return Source + "int main() { return 0; }\n";
}

TEST(FrontEndScale, LowerGrowsLinearlyWithFunctionCount) {
  // Parameters emit no instructions, so scope bookkeeping is most of the
  // work, and the name table grows with the function count. Linear
  // lowering reads t(400)/t(50) about 8x on 4 vCPUs; building the
  // name-sized scope table per function instead of per thread read 44-60x.
  constexpr unsigned Params = 1024;
  double LowerMs[NumSizes];
  for (size_t S = 0; S < NumSizes; ++S) {
    ParseResult PR =
        parseMiniC(manyFunctionsSource(Sizes[S], Params), "funcs.c");
    ASSERT_TRUE(PR.succeeded());
    LowerMs[S] = std::numeric_limits<double>::infinity();
    for (unsigned Rep = 0; Rep < 5; ++Rep) {
      Clock::time_point T0 = Clock::now();
      LowerResult LR = lowerProgram(PR.Program);
      LowerMs[S] = std::min(LowerMs[S], msSince(T0));
      ASSERT_TRUE(LR.succeeded());
      ASSERT_EQ(LR.M->Functions.size(), Sizes[S] + 1);
    }
  }
  expectLinear("lower", "function count", LowerMs);
}

} // namespace

//===- tests/HcpaOracleTest.cpp - runtime vs. independent HCPA oracle -----===//
//
// Fixed programs on which the interpreter plus KremlinRuntime must agree
// bit for bit with the HCPA oracle (HcpaOracle.h): the shipped MiniC
// examples without recursion, the Figure 2-3 tracking program, the
// dead-frame-array regression, and three paper-suite programs. PropertyTest
// sweeps the same comparison over random programs.
//
//===----------------------------------------------------------------------===//

#include "HcpaOracle.h"
#include "TestUtil.h"

#include "suite/PaperSuite.h"

#include <fstream>
#include <sstream>

using namespace kremlin;
using namespace kremlin::test;

namespace {

std::string readExample(const std::string &Name) {
  std::ifstream In(KREMLIN_EXAMPLES_DIR "/minic/" + Name);
  EXPECT_TRUE(In.good()) << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(HcpaOracle, MatchesRuntimeOnExamples) {
  // recursion_demo.c is left out: the oracle needs seconds for it.
  for (const char *Name : {"lint_demo.c", "quickstart.c", "reduction_demo.c"}) {
    SCOPED_TRACE(Name);
    expectProfileMatchesOracle(readExample(Name));
  }
}

TEST(HcpaOracle, MatchesRuntimeOnTracking) {
  expectProfileMatchesOracle(trackingSource());
}

TEST(HcpaOracle, MatchesRuntimeOnDeadFrameArrays) {
  expectProfileMatchesOracle(DeadFrameArraySource);
}

TEST(HcpaOracle, MatchesRuntimeOnPaperSuitePrograms) {
  for (const char *Name : {"art", "cg", "is"}) {
    SCOPED_TRACE(Name);
    expectProfileMatchesOracle(generatePaperBenchmark(Name).Source);
  }
}

} // namespace

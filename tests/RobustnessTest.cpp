//===- tests/RobustnessTest.cpp - Malformed-input corpus tests ------------===//
//
// Drives the `kremlin` CLI over tests/corpus/ — truncated compressed
// traces, unterminated MiniC tokens, dictionary indices out of range,
// zero-byte files — and asserts the error contract on every one: the
// process exits nonzero *by returning* (no signal, no abort), and stderr
// carries a one-line structured diagnostic naming the input. The same
// contract covers malformed flag values, the guardrail flags, and the
// fault-injection drills (KREMLIN_FAULT), which also must leave no
// sanitizer report behind when the tools are built with sanitizers.
//
// Paths are injected by CMake as KREMLIN_CORPUS_DIR, KREMLIN_TOOL_PATH,
// KREMLIN_BENCH_TOOL_PATH and KREMLIN_EXAMPLES_DIR.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using kremlin::test::expectNoSanitizerReport;

namespace {

struct RunResult {
  bool ExitedCleanly = false; ///< WIFEXITED: returned, not signal-killed.
  int ExitCode = -1;
  std::string Output; ///< Combined stdout+stderr.
};

std::string scratchPath(const std::string &Name) {
  return ::testing::TempDir() + "/kremlin_robust_" +
         std::to_string(::getpid()) + "_" + Name;
}

/// Runs \p Binary with \p Args; \p Prefix goes in front of the command
/// (environment assignments such as `KREMLIN_FAULT=...`, or a wrapper).
RunResult runBinary(const std::string &Binary, const std::string &Args,
                    const std::string &Prefix = "") {
  std::string OutPath = scratchPath("out.txt");
  std::string Cmd =
      Prefix + " " + Binary + " " + Args + " > " + OutPath + " 2>&1";
  int Raw = std::system(Cmd.c_str());
  RunResult R;
  R.ExitedCleanly = WIFEXITED(Raw);
  R.ExitCode = R.ExitedCleanly ? WEXITSTATUS(Raw) : -1;
  std::ifstream In(OutPath);
  std::ostringstream SS;
  SS << In.rdbuf();
  R.Output = SS.str();
  std::remove(OutPath.c_str());
  return R;
}

RunResult runTool(const std::string &Args, const std::string &Prefix = "") {
  return runBinary(KREMLIN_TOOL_PATH, Args, Prefix);
}


/// One corpus case: the file, how to feed it to the tool, and a substring
/// the diagnostic must contain (beyond naming the input itself).
struct CorpusCase {
  const char *File;
  /// "source" runs `kremlin <file>`; "trace" runs `kremlin --load-trace=`.
  const char *Mode;
  const char *ExpectInDiagnostic;
};

const CorpusCase Corpus[] = {
    // A zero-byte program parses to an empty module; the failure is the
    // missing main, caught at execute.
    {"zero_byte.c", "source", "stage 'execute'"},
    {"unterminated_comment.c", "source", "unterminated_comment.c"},
    {"bad_symbol.c", "source", "bad_symbol.c"},
    {"zero_byte.ktrace", "trace", "trace-decode"},
    {"bad_magic.ktrace", "trace", "not a kremlin-trace"},
    {"truncated_trace.ktrace", "trace", "truncated"},
    {"dict_index_oob.ktrace", "trace", "dictionary index out of range"},
    {"root_out_of_range.ktrace", "trace", "dictionary index out of range"},
};

/// Prints a case by its file name. Without this, gtest prints the raw
/// pointer bytes, which change from run to run under ASLR and so make the
/// ctest test names (which carry the printed parameter) unstable.
void PrintTo(const CorpusCase &C, std::ostream *OS) { *OS << C.File; }

class RobustnessTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(RobustnessTest, ErrorNotCrash) {
  const CorpusCase &C = GetParam();
  std::string Path = std::string(KREMLIN_CORPUS_DIR) + "/" + C.File;
  // The corpus file must exist (guards against renames going stale).
  ASSERT_TRUE(std::ifstream(Path).good()) << Path;

  std::string Args = C.Mode == std::string("trace")
                         ? "--load-trace=" + Path
                         : Path;
  RunResult R = runTool(Args);
  EXPECT_TRUE(R.ExitedCleanly)
      << C.File << " killed the tool with a signal:\n" << R.Output;
  EXPECT_NE(R.ExitCode, 0) << C.File << " was accepted:\n" << R.Output;
  // The diagnostic names the input, so a batch run is actionable.
  EXPECT_NE(R.Output.find(C.File), std::string::npos)
      << "diagnostic does not name the input:\n" << R.Output;
  EXPECT_NE(R.Output.find(C.ExpectInDiagnostic), std::string::npos)
      << "diagnostic lacks '" << C.ExpectInDiagnostic << "':\n" << R.Output;
}

INSTANTIATE_TEST_SUITE_P(Corpus, RobustnessTest, ::testing::ValuesIn(Corpus),
                         [](const ::testing::TestParamInfo<CorpusCase> &I) {
                           std::string Name = I.param.File;
                           for (char &C : Name)
                             if (C == '.' || C == '-')
                               C = '_';
                           return Name;
                         });

// --- Guardrail flags exercised end to end through the CLI. --------------

TEST(Robustness, ShadowBudgetFlagTripsStructuredError) {
  // 1 MB of shadow is far too little for the ep benchmark: the run must
  // fail with a resource-exhausted diagnostic naming the execute stage —
  // and still exit, not abort.
  RunResult R = runTool("--bench=ep --max-shadow-mb=1");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("stage 'execute'"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("resource-exhausted"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("shadow-memory byte budget"), std::string::npos)
      << R.Output;
  expectNoSanitizerReport(R.Output);
}

TEST(Robustness, RegionDepthCapTripsStructuredError) {
  RunResult R = runTool("--bench=ep --max-region-depth=1");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("resource-exhausted"), std::string::npos)
      << R.Output;
}

TEST(Robustness, GenerousGuardrailsDoNotTrip) {
  RunResult R = runTool("--bench=ep --max-shadow-mb=4096 "
                        "--max-region-depth=4096 --rows=1");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(Robustness, FaultEnvIsHonored) {
  // KREMLIN_FAULT=stage:execute through the environment: the pipeline
  // fails at execute with the injection named in the diagnostic.
  std::string OutPath = ::testing::TempDir() + "/kremlin_robust_env_" +
                        std::to_string(::getpid()) + ".txt";
  int Raw = std::system(("env KREMLIN_FAULT=stage:execute " +
                         std::string(KREMLIN_TOOL_PATH) + " --bench=ep > " +
                         OutPath + " 2>&1")
                            .c_str());
  ASSERT_TRUE(WIFEXITED(Raw));
  EXPECT_NE(WEXITSTATUS(Raw), 0);
  std::ifstream In(OutPath);
  std::ostringstream SS;
  SS << In.rdbuf();
  std::remove(OutPath.c_str());
  EXPECT_NE(SS.str().find("fault-injected"), std::string::npos) << SS.str();
  EXPECT_NE(SS.str().find("stage 'execute'"), std::string::npos) << SS.str();
}

TEST(Robustness, ReportRendersDeepCallChain) {
  // 2^24 root-to-leaf paths in the region graph; the report is one node
  // per region and returns at once.
  std::string Src = scratchPath("chain.c");
  {
    std::ofstream Out(Src);
    Out << kremlin::test::callChainSource(24);
  }
  RunResult R = runTool("report " + Src + " --format=speedscope", "timeout 60");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_EQ(R.ExitCode, 0) << R.Output.substr(0, 2000);
  EXPECT_NE(R.Output.find("\"samples\""), std::string::npos);
  expectNoSanitizerReport(R.Output);
  std::remove(Src.c_str());
}

TEST(Robustness, ReportRefusesTraceFromBiggerProgram) {
  // sp's region ids run past is's region table.
  std::string Trace = scratchPath("sp.ktrace");
  RunResult Save = runTool("--bench=sp --save-trace=" + Trace + " --rows=1");
  ASSERT_EQ(Save.ExitCode, 0) << Save.Output;
  RunResult R =
      runTool("report --bench=is --load-trace=" + Trace + " --format=tree");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_EQ(std::count(R.Output.begin(), R.Output.end(), '\n'), 1)
      << R.Output;
  EXPECT_NE(R.Output.find(Trace), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("'is.c'"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("region id"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("invalid-argument"), std::string::npos)
      << R.Output;
  expectNoSanitizerReport(R.Output);
  std::remove(Trace.c_str());
}

// --- Malformed flag values. ----------------------------------------------

/// A flag value the parser must reject: exit 1 with one line naming the
/// flag and the value, instead of running with a silently different
/// setting (or, for a port, listening somewhere else).
struct BadFlagCase {
  const char *Name;
  const char *Args;
  const char *Flag;
  const char *Value;
};

const BadFlagCase BadFlags[] = {
    {"min_sp_abc", "--tracking --min-sp=abc", "--min-sp", "abc"},
    {"max_shadow_mb_abc", "--bench=ep --max-shadow-mb=abc", "--max-shadow-mb",
     "abc"},
    {"max_region_depth_one", "--bench=ep --max-region-depth=one",
     "--max-region-depth", "one"},
    {"serve_port_99999", "serve --port=99999", "--port", "99999"},
};

void PrintTo(const BadFlagCase &C, std::ostream *OS) { *OS << C.Name; }

class BadFlagValueTest : public ::testing::TestWithParam<BadFlagCase> {};

TEST_P(BadFlagValueTest, ExitsOneNamingFlagAndValue) {
  const BadFlagCase &C = GetParam();
  // A server that accepted its flags would run until killed.
  RunResult R = runTool(C.Args, "timeout 60");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_EQ(std::count(R.Output.begin(), R.Output.end(), '\n'), 1)
      << R.Output;
  EXPECT_NE(R.Output.find(C.Flag), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("'" + std::string(C.Value) + "'"),
            std::string::npos)
      << R.Output;
}

INSTANTIATE_TEST_SUITE_P(
    MalformedFlag, BadFlagValueTest, ::testing::ValuesIn(BadFlags),
    [](const ::testing::TestParamInfo<BadFlagCase> &I) {
      return std::string(I.param.Name);
    });

// --- Fault-injection drills. -----------------------------------------------

TEST(Robustness, AllocFaultsOverExamplesExitStructured) {
  // Strided stores touch a fresh shadow page per iteration, so alloc
  // faults hit the shadow page pool's slab carve and recycle paths.
  std::string Trip = scratchPath("shadow_trip.c");
  {
    std::ofstream Out(Trip);
    Out << "int big[200000];\n"
           "int main() {\n"
           "  int s = 0;\n"
           "  for (int i = 0; i < 200000; i = i + 4096) { big[i] = i; "
           "s = s + 1; }\n"
           "  return s;\n"
           "}\n";
  }
  std::vector<std::string> Sources = {Trip};
  for (const auto &E :
       std::filesystem::directory_iterator(KREMLIN_EXAMPLES_DIR "/minic"))
    if (E.path().extension() == ".c")
      Sources.push_back(E.path().string());
  ASSERT_GT(Sources.size(), 1u);
  for (const std::string &Src : Sources)
    for (const char *P : {"0.05", "0.5"}) {
      RunResult R = runTool(Src + " --rows=1",
                            std::string("KREMLIN_FAULT=alloc:") + P +
                                " KREMLIN_FAULT_SEED=7");
      EXPECT_TRUE(R.ExitedCleanly) << Src << " p=" << P << ":\n" << R.Output;
      EXPECT_TRUE(R.ExitCode == 0 || R.ExitCode == 1)
          << Src << " p=" << P << " exit " << R.ExitCode << ":\n"
          << R.Output;
      expectNoSanitizerReport(R.Output);
    }
  std::remove(Trip.c_str());
}

TEST(Robustness, IngestFaultFailsTraceLoadStructured) {
  std::string Trace = scratchPath("ingest.ktrace");
  RunResult Save = runTool("--bench=is --save-trace=" + Trace + " --rows=1");
  ASSERT_EQ(Save.ExitCode, 0) << Save.Output;
  RunResult R =
      runTool("report --bench=is --load-trace=" + Trace + " --format=tree",
              "KREMLIN_FAULT=ingest:1.0");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("fault-injected"), std::string::npos) << R.Output;
  expectNoSanitizerReport(R.Output);
  std::remove(Trace.c_str());
}

TEST(Robustness, StoreWriteFaultFailsMergeStructured) {
  std::string Ep = scratchPath("store_ep.ktrace");
  std::string Is = scratchPath("store_is.ktrace");
  std::string Store = scratchPath("faultstore");
  for (const std::string &Save : {"--bench=ep --save-trace=" + Ep,
                                  "--bench=is --save-trace=" + Is}) {
    RunResult R = runTool(Save + " --rows=1");
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
  }
  RunResult R = runTool("merge " + Ep + " " + Is + " --store=" + Store,
                        "KREMLIN_FAULT=store_write:1.0");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("fault-injected"), std::string::npos) << R.Output;
  expectNoSanitizerReport(R.Output);
  std::remove(Ep.c_str());
  std::remove(Is.c_str());
  std::filesystem::remove_all(Store);
}

TEST(Robustness, StageFaultMarksBenchmarksFailed) {
  // Fault isolation: every benchmark fails at execute, the suite still
  // completes and records each failure, and the exit code reports it.
  std::string Results = scratchPath("bench_fault.json");
  RunResult R = runBinary(KREMLIN_BENCH_TOOL_PATH,
                          "--benchmarks=ep,cg --out=" + Results,
                          "KREMLIN_FAULT=stage:execute");
  EXPECT_TRUE(R.ExitedCleanly) << R.Output;
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  expectNoSanitizerReport(R.Output);
  std::ifstream In(Results);
  std::ostringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(SS.str().find("\"status\": \"failed\""), std::string::npos)
      << SS.str();
  EXPECT_NE(SS.str().find("\"cg\""), std::string::npos) << SS.str();
  std::remove(Results.c_str());
}

} // namespace

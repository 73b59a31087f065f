//===- tests/RobustnessTest.cpp - Malformed-input corpus tests ------------===//
//
// Drives the `kremlin` CLI over tests/corpus/ — truncated compressed
// traces, unterminated MiniC tokens, dictionary indices out of range,
// zero-byte files — and asserts the error contract on every one: the
// process exits nonzero *by returning* (no signal, no abort), and stderr
// carries a one-line structured diagnostic naming the input.
//
// The corpus directory and tool path are injected by CMake as
// KREMLIN_CORPUS_DIR / KREMLIN_TOOL_PATH.
//
//===----------------------------------------------------------------------===//

#include "gtest/gtest.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

namespace {

struct RunResult {
  bool ExitedCleanly = false; ///< WIFEXITED: returned, not signal-killed.
  int ExitCode = -1;
  std::string Output; ///< Combined stdout+stderr.
};

RunResult runTool(const std::string &Args) {
  std::string OutPath = ::testing::TempDir() + "/kremlin_robust_" +
                        std::to_string(::getpid()) + ".txt";
  std::string Cmd =
      std::string(KREMLIN_TOOL_PATH) + " " + Args + " > " + OutPath + " 2>&1";
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

} // namespace

//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suite: compile MiniC source, run the full
/// profiling pipeline, and fetch per-region profile entries by name.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_TESTS_TESTUTIL_H
#define KREMLIN_TESTS_TESTUTIL_H

#include "compress/Dictionary.h"
#include "instrument/Instrumenter.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "parser/Lower.h"
#include "profile/ParallelismProfile.h"
#include "rt/KremlinRuntime.h"

#include "gtest/gtest.h"

#include <memory>
#include <string>

namespace kremlin::test {

/// Everything a profiled run produces.
struct ProfiledRun {
  std::unique_ptr<Module> M;
  std::unique_ptr<DictionaryCompressor> Dict;
  std::unique_ptr<ParallelismProfile> Profile;
  ExecResult Exec;
};

/// Compiles \p Source; fails the current test on any error.
inline std::unique_ptr<Module> compileOrDie(const std::string &Source,
                                            const std::string &Name = "t.c") {
  LowerResult LR = compileMiniC(Source, Name);
  for (const std::string &E : LR.Errors)
    ADD_FAILURE() << "compile error: " << E;
  std::vector<std::string> Problems = verifyModule(*LR.M);
  for (const std::string &P : Problems)
    ADD_FAILURE() << "verifier: " << P;
  return std::move(LR.M);
}

/// Compiles, instruments, interprets under the HCPA runtime, and builds the
/// parallelism profile.
inline ProfiledRun profileSource(const std::string &Source,
                                 KremlinConfig Cfg = KremlinConfig(),
                                 InterpConfig ICfg = InterpConfig()) {
  ProfiledRun Run;
  Run.M = compileOrDie(Source);
  InstrumentResult IR = instrumentModule(*Run.M);
  for (const std::string &W : IR.Warnings)
    ADD_FAILURE() << "instrumenter: " << W;
  Run.Dict = std::make_unique<DictionaryCompressor>();
  KremlinRuntime RT(Cfg, *Run.Dict);
  Interpreter Interp(*Run.M, ICfg);
  Run.Exec = Interp.run(&RT);
  EXPECT_TRUE(Run.Exec.Ok) << Run.Exec.Error;
  Run.Profile = std::make_unique<ParallelismProfile>(*Run.M, *Run.Dict);
  return Run;
}

/// Runs a program without instrumentation and returns main's value.
inline int64_t runPlain(const std::string &Source) {
  std::unique_ptr<Module> M = compileOrDie(Source);
  Interpreter Interp(*M);
  ExecResult R = Interp.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.ExitValue;
}

/// A 64-iteration DOALL loop whose callee reads its fresh, zeroed local
/// array before writing it; every call's frame reuses the dead previous
/// frame's words.
inline constexpr const char *DeadFrameArraySource = R"(
  int out[64];
  int f(int k) {
    int a[8];
    int s = a[3];
    s = s * 3 + k; s = s * 5 + k; s = s * 7 + k;
    s = s * 3 + k; s = s * 5 + k; s = s * 7 + k;
    a[3] = s % 1009;
    return a[3];
  }
  int main() {
    for (int i = 0; i < 64; i = i + 1) { out[i] = f(i); }
    return out[5];
  }
)";

/// A guarded call chain of \p Depth levels: f<k>(0) calls f<k+1> from two
/// loops, so every f<k+1> has two observed parents and the region graph
/// has 2^Depth root-to-leaf paths. Only f<k+1>(0) goes deeper, so the run
/// itself stays small (four calls per level).
inline std::string callChainSource(unsigned Depth) {
  std::string Src =
      "int f" + std::to_string(Depth) + "(int n) { return n; }\n";
  for (unsigned K = Depth; K-- > 0;) {
    std::string Next = "f" + std::to_string(K + 1);
    Src += "int f" + std::to_string(K) +
           "(int n) {\n"
           "  if (n == 0) {\n"
           "    for (int i = 0; i < 2; i = i + 1) { " +
           Next +
           "(i); }\n"
           "    for (int j = 0; j < 2; j = j + 1) { " +
           Next +
           "(j + 1); }\n"
           "  }\n"
           "  return 0;\n"
           "}\n";
  }
  return Src + "int main() { f0(0); return 0; }\n";
}

/// The nearest non-Body ancestor of \p R in the profile's region tree: the
/// parent a planner sees. NoRegion for the root.
inline RegionId candidateParent(const ParallelismProfile &P, RegionId R) {
  RegionId Up = P.parent(R);
  while (Up != NoRegion && P.module().Regions[Up].Kind == RegionKind::Body)
    Up = P.parent(Up);
  return Up;
}

/// Sanitizer builds exit 1 on a report, the same code as a structured
/// error, so a drill that runs the tools must check their output too.
inline void expectNoSanitizerReport(const std::string &Output) {
  EXPECT_EQ(Output.find("Sanitizer"), std::string::npos) << Output;
  EXPECT_EQ(Output.find("runtime error:"), std::string::npos) << Output;
}

/// Finds the profile entry of the first executed region with \p Kind whose
/// enclosing function is named \p Func; skips \p Skip matches first.
/// Returns nullptr when absent.
inline const RegionProfileEntry *
findRegion(const ProfiledRun &Run, RegionKind Kind, const std::string &Func,
           unsigned Skip = 0) {
  for (const RegionProfileEntry &E : Run.Profile->entries()) {
    const StaticRegion &R = Run.M->Regions[E.Id];
    if (R.Kind != Kind || !E.Executed)
      continue;
    if (Run.M->Functions[R.Func].Name != Func)
      continue;
    if (Skip == 0)
      return &E;
    --Skip;
  }
  return nullptr;
}

} // namespace kremlin::test

#endif // KREMLIN_TESTS_TESTUTIL_H

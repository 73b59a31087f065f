//===- tests/InterpMemoryTest.cpp - program-memory contract ---------------===//
//
// Every Interpreter::run reserves fresh, zeroed program memory and releases
// it when the run ends, in both plain and profiled mode: a second run of
// one Interpreter sees none of the first run's stores, and a reservation
// the host cannot satisfy comes back as a structured ResourceExhausted
// result instead of an escaping std::bad_alloc.
//
// ctest runs this binary with ASAN_OPTIONS=allocator_may_return_null=1, so
// a sanitizer build hands the interpreter the null pointer a plain build
// gets rather than aborting on the oversized request.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace kremlin;
using namespace kremlin::test;

namespace {

ExecResult runIn(Interpreter &I, bool Profiled) {
  if (!Profiled)
    return I.run();
  DictionaryCompressor Dict;
  KremlinRuntime RT(KremlinConfig(), Dict);
  return I.run(&RT);
}

TEST(InterpMemory, RerunSeesFreshMemory) {
  // main reads every global before adding to it, and fill reads its frame
  // array before writing it: a run that inherited memory would differ.
  std::unique_ptr<Module> M = compileOrDie(R"(
    int g[64];
    int fill(int n) {
      int a[32];
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; a[i] = i * n; }
      for (int i = 0; i < 32; i = i + 1) { s = s + a[i]; }
      return s;
    }
    int main() {
      int t = 0;
      for (int i = 0; i < 64; i = i + 1) { g[i] = g[i] + i; t = t + g[i]; }
      return t + fill(2) + fill(3);
    }
  )");
  instrumentModule(*M);
  for (bool Profiled : {false, true}) {
    SCOPED_TRACE(Profiled ? "profiled" : "plain");
    Interpreter I(*M);
    ExecResult First = runIn(I, Profiled);
    ExecResult Second = runIn(I, Profiled);
    ASSERT_TRUE(First.Ok) << First.Error;
    ASSERT_TRUE(Second.Ok) << Second.Error;
    EXPECT_EQ(First.ExitValue, 2016 + 992 + 1488);
    EXPECT_EQ(Second.ExitValue, First.ExitValue);
    EXPECT_EQ(Second.DynInstructions, First.DynInstructions);
  }
}

TEST(InterpMemory, UnreservableStackIsResourceExhausted) {
  std::unique_ptr<Module> M = compileOrDie(
      "int g[4];\nint main() { g[1] = 7; return g[1]; }");
  instrumentModule(*M);
  for (bool Profiled : {false, true}) {
    SCOPED_TRACE(Profiled ? "profiled" : "plain");
    InterpConfig Cfg;
    Cfg.StackWords = 1ull << 50; // 8 PiB: no host can back it.
    Interpreter I(*M, Cfg);
    ExecResult R;
    EXPECT_NO_THROW(R = runIn(I, Profiled));
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Err.code(), ErrorCode::ResourceExhausted) << R.Error;
    EXPECT_FALSE(R.Error.empty());
  }
}

} // namespace

//===- tests/InterpTest.cpp - interpreter semantics -----------------------===//

#include "HcpaOracle.h"
#include "TestUtil.h"

#include "interp/Tape.h"
#include "suite/PaperSuite.h"
#include "support/StringUtils.h"

#include <fstream>
#include <map>

using namespace kremlin;
using namespace kremlin::test;

namespace {

TEST(Interp, ArithmeticAndPrecedence) {
  EXPECT_EQ(runPlain("int main() { return 2 + 3 * 4; }"), 14);
  EXPECT_EQ(runPlain("int main() { return (2 + 3) * 4; }"), 20);
  EXPECT_EQ(runPlain("int main() { return 17 / 5; }"), 3);
  EXPECT_EQ(runPlain("int main() { return 17 % 5; }"), 2);
  EXPECT_EQ(runPlain("int main() { return -7 + 2; }"), -5);
}

TEST(Interp, TrapFreeDivision) {
  EXPECT_EQ(runPlain("int main() { int z = 0; return 5 / z; }"), 0);
  EXPECT_EQ(runPlain("int main() { int z = 0; return 5 % z; }"), 0);
}

TEST(Interp, FloatArithmetic) {
  EXPECT_EQ(runPlain("int main() { float x = 1.5; float y = 2.5;"
                     " float z = x * y + 0.25; return z * 4.0; }"),
            16);
  // Int->float promotion and float->int truncation.
  EXPECT_EQ(runPlain("int main() { float x = 7; return x / 2.0; }"), 3);
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(runPlain("int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + "
                     "(2 >= 3) + (1 == 1) + (1 != 1); }"),
            4);
  EXPECT_EQ(runPlain("int main() { float a = 1.5; return (a < 2.0) + "
                     "(a == 1.5) + (a != 1.5); }"),
            2);
}

TEST(Interp, LogicalOps) {
  EXPECT_EQ(runPlain("int main() { return (1 && 2) + (0 && 1) + (0 || 3) + "
                     "(0 || 0) + !0 + !5; }"),
            3);
}

TEST(Interp, IfElseChains) {
  const char *Src = R"(
    int classify(int x) {
      if (x < 0) { return 0 - 1; }
      if (x == 0) { return 0; }
      if (x < 10) { return 1; } else { return 2; }
    }
    int main() {
      return classify(0 - 5) * 1000 + classify(0) * 100 +
             classify(5) * 10 + classify(50);
    }
  )";
  EXPECT_EQ(runPlain(Src), -1000 + 0 + 10 + 2);
}

TEST(Interp, WhileLoop) {
  EXPECT_EQ(runPlain("int main() { int n = 0; int s = 0;"
                     " while (n < 10) { s = s + n; n = n + 1; }"
                     " return s; }"),
            45);
}

TEST(Interp, ForLoopSum) {
  EXPECT_EQ(runPlain("int main() { int s = 0;"
                     " for (int i = 1; i <= 100; i = i + 1) { s = s + i; }"
                     " return s; }"),
            5050);
}

TEST(Interp, GlobalArrays) {
  const char *Src = R"(
    int a[10];
    int main() {
      for (int i = 0; i < 10; i = i + 1) { a[i] = i * i; }
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) { s = s + a[i]; }
      return s;
    }
  )";
  EXPECT_EQ(runPlain(Src), 285);
}

TEST(Interp, TwoDimensionalArrays) {
  const char *Src = R"(
    int m[3][4];
    int main() {
      for (int i = 0; i < 3; i = i + 1) {
        for (int j = 0; j < 4; j = j + 1) { m[i][j] = i * 10 + j; }
      }
      return m[2][3] * 100 + m[1][2];
    }
  )";
  EXPECT_EQ(runPlain(Src), 2312);
}

TEST(Interp, LocalArraysFreshPerCall) {
  const char *Src = R"(
    int acc(int x) {
      int buf[4];
      buf[0] = buf[0] + x; // buf must be zeroed on every call.
      return buf[0];
    }
    int main() { return acc(5) + acc(7); }
  )";
  EXPECT_EQ(runPlain(Src), 12);
}

TEST(Interp, ArrayParameters) {
  const char *Src = R"(
    int data[6];
    int sum(int a[], int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
      return s;
    }
    void fill(int a[], int n) {
      for (int i = 0; i < n; i = i + 1) { a[i] = i + 1; }
    }
    int main() {
      fill(data, 6);
      return sum(data, 6);
    }
  )";
  EXPECT_EQ(runPlain(Src), 21);
}

TEST(Interp, Recursion) {
  EXPECT_EQ(runPlain("int fib(int n) { if (n < 2) { return n; }"
                     " return fib(n - 1) + fib(n - 2); }"
                     "int main() { return fib(12); }"),
            144);
}

TEST(Interp, MutualRecursion) {
  const char *Src = R"(
    int isOdd(int n);
    int isEven(int n) { if (n == 0) { return 1; } return isOdd(n - 1); }
    int isOdd(int n) { if (n == 0) { return 0; } return isEven(n - 1); }
    int main() { return isEven(10) * 10 + isOdd(7); }
  )";
  // MiniC has no forward declarations; restructure without them.
  const char *Src2 = R"(
    int parity(int n) {
      int p = 0;
      while (n > 0) { p = !p; n = n - 1; }
      return p;
    }
    int main() { return parity(10) * 10 + parity(7); }
  )";
  (void)Src;
  EXPECT_EQ(runPlain(Src2), 1);
}

TEST(Interp, CallDepthLimit) {
  std::unique_ptr<Module> M = compileOrDie(
      "int f(int n) { return f(n + 1); }\nint main() { return f(0); }");
  InterpConfig Cfg;
  Cfg.MaxCallDepth = 64;
  Interpreter I(*M, Cfg);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("call depth"), std::string::npos);
}

TEST(Interp, ProfiledRecursionNearTheDepthLimit) {
  // A profiled run interprets on a helper thread: its stack must hold
  // 4001 nested calls (main, then depth(3999) down to depth(0)), just
  // under the default MaxCallDepth of 4096.
  ProfiledRun Run = profileSource(R"(
    int depth(int n) {
      if (n == 0) { return 0; }
      return depth(n - 1) + 1;
    }
    int main() { return depth(3999); }
  )");
  EXPECT_EQ(Run.Exec.ExitValue, 3999);
}

TEST(Interp, StepBudget) {
  std::unique_ptr<Module> M = compileOrDie(
      "int main() { int s = 0; while (1) { s = s + 1; } return s; }");
  InterpConfig Cfg;
  Cfg.MaxSteps = 10000;
  Interpreter I(*M, Cfg);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(Interp, OutOfBoundsLoadFails) {
  std::unique_ptr<Module> M = compileOrDie(
      "int a[4];\nint main() { int i = 1000000000; return a[i]; }");
  InterpConfig Cfg;
  Cfg.StackWords = 1024;
  Interpreter I(*M, Cfg);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(Interp, MissingMainFails) {
  std::unique_ptr<Module> M = compileOrDie("int f() { return 1; }");
  Interpreter I(*M);
  ExecResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("main"), std::string::npos);
}

TEST(Interp, ProfiledRunMatchesPlainSemantics) {
  // The runtime hooks must never change program results.
  const char *Src = R"(
    int a[32];
    int gcd(int x, int y) {
      while (y != 0) { int t = y; y = x % y; x = t; }
      return x;
    }
    int main() {
      for (int i = 0; i < 32; i = i + 1) { a[i] = i * 7 % 23 + 1; }
      int g = a[0];
      for (int i = 1; i < 32; i = i + 1) { g = gcd(g, a[i]); }
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) {
        if (a[i] % 2 == 0) { s = s + a[i]; } else { s = s - 1; }
      }
      return g * 1000 + s;
    }
  )";
  int64_t Plain = runPlain(Src);
  ProfiledRun Run = profileSource(Src);
  EXPECT_EQ(Run.Exec.ExitValue, Plain);
}

// --- Execution tape ------------------------------------------------------

/// Decodes \p Source into tape form (instrumented, as the profiled path
/// sees it) and returns the tape of the function named \p Func.
const TapeFunction &tapeOf(std::unique_ptr<Module> &M, ModuleTape &Tape,
                           const std::string &Func) {
  for (size_t F = 0; F < M->Functions.size(); ++F)
    if (M->Functions[F].Name == Func)
      return Tape.Funcs[F];
  ADD_FAILURE() << "no function named " << Func;
  return Tape.Funcs[0];
}

std::pair<std::unique_ptr<Module>, std::unique_ptr<ModuleTape>>
decodeTape(const std::string &Source) {
  std::unique_ptr<Module> M = compileOrDie(Source);
  instrumentModule(*M);
  std::vector<uint64_t> GlobalBase(M->Globals.size(), 0);
  return {std::move(M), std::make_unique<ModuleTape>(*M, GlobalBase)};
}

TEST(Tape, FusesCompareBranchInLoopHeader) {
  // A counted loop's header compares the induction variable and branches
  // on the result; the decoder must collapse that pair into one TapeCmpBr
  // superinstruction (the compare result has no other reader).
  auto [M, Tape] = decodeTape(
      "int main() { int s = 0;"
      " for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }");
  const TapeFunction &F = tapeOf(M, *Tape, "main");
  EXPECT_GE(F.FusedCmpBr, 1u);
  unsigned Seen = 0;
  for (const TapeInst &I : F.Code)
    if (I.Op == TapeCmpBr) {
      ++Seen;
      EXPECT_LT(I.SubOp, static_cast<uint8_t>(Opcode::RegionEnter));
    }
  EXPECT_EQ(Seen, F.FusedCmpBr);
}

TEST(Tape, FusesLoadOpStore) {
  // a[i] = a[i] + v lowers to load/binop/store on one address register;
  // the decoder fuses the triple when the intermediate values are dead.
  auto [M, Tape] = decodeTape(
      "int a[16];"
      "int main() { for (int i = 0; i < 16; i = i + 1) { a[i] = a[i] + 3; }"
      " return a[5]; }");
  const TapeFunction &F = tapeOf(M, *Tape, "main");
  EXPECT_GE(F.FusedLoadOpStore, 1u);
  unsigned Seen = 0;
  for (const TapeInst &I : F.Code)
    if (I.Op == TapeLoadOpStore)
      ++Seen;
  EXPECT_EQ(Seen, F.FusedLoadOpStore);
}

TEST(Tape, FusesUpdatePairs) {
  // i = i + 1 and s = s + a[i] lower to an update op and the move that
  // copies its value back; the decoder fuses each pair. The induction's
  // move is an update too, the reduction's is not.
  auto [M, Tape] = decodeTape(
      "int a[16];"
      "int main() { int s = 0;"
      " for (int i = 0; i < 16; i = i + 1) { s = s + a[i]; } return s; }");
  const TapeFunction &F = tapeOf(M, *Tape, "main");
  EXPECT_EQ(F.FusedUpdates, 2u);
  unsigned Seen = 0, MoveUpdates = 0;
  for (const TapeInst &I : F.Code)
    if (I.Op == TapeUpdate) {
      ++Seen;
      MoveUpdates += (I.Flags & MoveBreakDepFlag) != 0;
      EXPECT_EQ(I.SubOp, static_cast<uint8_t>(Opcode::Add));
      EXPECT_TRUE(I.Flags & BreakDepFlag);
      EXPECT_NE(I.Dst, I.X); // The op's temporary, then the variable.
    }
  EXPECT_EQ(Seen, F.FusedUpdates);
  EXPECT_EQ(MoveUpdates, 1u);
}

TEST(Tape, ElidesSingleWriterConstEvents) {
  // Constants with a single static writer are marked NoEmitFlag: their
  // profiling event is elided (the zeroed frame row already encodes
  // "available at time 0") and only the instruction count is kept.
  auto [M, Tape] = decodeTape("int main() { int a = 4; int b = 38;"
                              " return a + b; }");
  const TapeFunction &F = tapeOf(M, *Tape, "main");
  unsigned Elided = 0;
  for (const TapeInst &I : F.Code)
    if (I.Flags & NoEmitFlag) {
      ++Elided;
      EXPECT_TRUE(I.Op == static_cast<uint8_t>(Opcode::ConstInt) ||
                  I.Op == static_cast<uint8_t>(Opcode::ConstFloat) ||
                  I.Op == static_cast<uint8_t>(Opcode::GlobalAddr) ||
                  I.Op == static_cast<uint8_t>(Opcode::FrameAddr));
    }
  EXPECT_GE(Elided, 2u); // At least the two integer literals.
}

TEST(Tape, FoldsExpressionTreesIntoTheirRoot) {
  // (a * b + c) * (a - c): the product, the sum and the difference are
  // single-use temporaries of the final product, which Ret reads. One
  // shape of four ops; c's two reads become one leaf at its longer
  // distance, and the longest op-to-root path is three ops.
  auto [M, Tape] = decodeTape("int f(int a, int b, int c) {"
                              " return (a * b + c) * (a - c); }"
                              "int main() { return f(1, 2, 3); }");
  const TapeFunction &F = tapeOf(M, *Tape, "f");
  ASSERT_EQ(F.Shapes.size(), 1u);
  EXPECT_EQ(F.InnerOps, 3u);
  const TreeShape &S = F.Shapes[0];
  EXPECT_EQ(S.Ops, 4u);
  EXPECT_EQ(S.Work, 4u);
  EXPECT_EQ(S.CdDist, 3u);
  ASSERT_EQ(S.NumLeaves, 3u);
  std::map<uint32_t, uint32_t> Dist;
  for (uint32_t L = 0; L < S.NumLeaves; ++L)
    Dist[S.Leaves[L].Reg] = S.Leaves[L].Dist;
  EXPECT_EQ(Dist, (std::map<uint32_t, uint32_t>{{0, 3}, {1, 3}, {2, 2}}));
  unsigned Roots = 0, Inner = 0;
  for (const TapeInst &I : F.Code) {
    Roots += (I.Flags & TreeRootFlag) != 0;
    Inner += (I.Flags & InnerFlag) != 0;
  }
  EXPECT_EQ(Roots, 1u);
  EXPECT_EQ(Inner, F.InnerOps);
}

/// Registers live out of each block of \p Fn: a backward fixpoint over
/// the CFG, with a call's arguments counted as reads.
std::vector<std::vector<bool>> liveOut(const Function &Fn) {
  const size_t NB = Fn.Blocks.size(), NV = Fn.NumValues;
  std::vector<std::vector<bool>> Use(NB, std::vector<bool>(NV)),
      Def(NB, std::vector<bool>(NV)), In(NB, std::vector<bool>(NV)),
      Out(NB, std::vector<bool>(NV));
  for (size_t B = 0; B < NB; ++B)
    for (const Instruction &I : Fn.Blocks[B].Insts) {
      std::vector<ValueId> Reads = {I.A, I.B};
      for (ValueId V : Fn.callArgs(I))
        Reads.push_back(V);
      for (ValueId V : Reads)
        if (V != NoValue && !Def[B][V])
          Use[B][V] = true;
      if (I.Result != NoValue)
        Def[B][I.Result] = true;
    }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t B = NB; B-- > 0;) {
      const Instruction &Term = Fn.Blocks[B].Insts.back();
      std::vector<BlockId> Succs;
      if (Term.Op == Opcode::Br)
        Succs = {Term.Aux};
      else if (Term.Op == Opcode::CondBr)
        Succs = {Term.Aux, Term.Aux2};
      for (BlockId S : Succs)
        for (size_t V = 0; V < NV; ++V)
          if (In[S][V] && !Out[B][V])
            Out[B][V] = Changed = true;
      for (size_t V = 0; V < NV; ++V)
        if ((Use[B][V] || (Out[B][V] && !Def[B][V])) && !In[B][V])
          In[B][V] = Changed = true;
    }
  }
  return Out;
}

/// Checks the inner values of \p TF, the tape of \p Fn, without the
/// planner's help, and returns its inner ops.
unsigned checkInnerValues(const Function &Fn, const TapeFunction &TF) {
  const std::vector<std::vector<bool>> Out = liveOut(Fn);
  auto IsPureOp = [](uint8_t Op, uint8_t Flags) {
    return !(Flags & BreakDepFlag) &&
           ((Op >= static_cast<uint8_t>(Opcode::Add) &&
             Op <= static_cast<uint8_t>(Opcode::Move)) ||
            Op == static_cast<uint8_t>(Opcode::PtrAdd));
  };
  // The block whose inner op wrote each register's current value, if one.
  std::vector<size_t> InnerIn(Fn.NumValues, SIZE_MAX);
  std::vector<ValueId> WrittenInner;
  size_t Block = 0;
  unsigned Inner = 0;
  for (size_t K = 0; K < TF.Code.size(); ++K) {
    const TapeInst &T = TF.Code[K];
    const std::string Where = Fn.Name + " tape " + std::to_string(K);
    auto Read = [&](ValueId V, bool ByFoldedPureOp) {
      if (V != NoValue && InnerIn[V] == Block) {
        EXPECT_TRUE(ByFoldedPureOp) << Where << " reads inner %" << V;
      }
    };
    auto Write = [&](ValueId V, bool IsInner) {
      InnerIn[V] = IsInner ? Block : SIZE_MAX;
      if (IsInner)
        WrittenInner.push_back(V);
    };
    const bool Folded = (T.Flags & (InnerFlag | TreeRootFlag)) != 0;
    Inner += (T.Flags & InnerFlag) != 0;
    bool Terminates = false;
    if (T.Op == TapeLoadOpStore) {
      Read(T.A, false);
      Write(T.Dst, false);
      Read(T.Dst, Folded && IsPureOp(T.SubOp, T.Flags));
      Read(T.B, Folded && IsPureOp(T.SubOp, T.Flags));
      Write(T.X, T.Flags & InnerFlag);
      Read(T.A, false);
      Read(T.X, false);
    } else if (T.Op == TapeUpdate) {
      // r = op a, b; v = move r: no DAG reads or writes either value.
      EXPECT_FALSE(Folded) << Where << " folds an update";
      Read(T.A, false);
      Read(T.B, false);
      Write(T.Dst, false);
      Write(T.X, false);
    } else if (T.Op == TapeCmpBr) {
      Read(T.A, Folded && IsPureOp(T.SubOp, T.Flags));
      Read(T.B, Folded && IsPureOp(T.SubOp, T.Flags));
      Write(T.Dst, T.Flags & InnerFlag);
      Read(T.Dst, false);
      Terminates = true;
    } else if (T.Op == static_cast<uint8_t>(Opcode::Call)) {
      for (uint32_t Arg = 0; Arg < T.Y; ++Arg)
        Read(Fn.CallArgs[T.X + Arg], false);
      if (T.Dst != NoValue)
        Write(T.Dst, false);
    } else {
      const bool Pure = IsPureOp(T.Op, T.Flags);
      EXPECT_TRUE(Pure || !Folded) << Where << " folds an impure op";
      if (T.Op != static_cast<uint8_t>(Opcode::RegionEnter) &&
          T.Op != static_cast<uint8_t>(Opcode::RegionExit)) {
        Read(T.A, Folded && Pure);
        Read(T.B, Folded && Pure);
      }
      if (T.Dst != NoValue)
        Write(T.Dst, T.Flags & InnerFlag);
      Terminates = T.Op == static_cast<uint8_t>(Opcode::Br) ||
                   T.Op == static_cast<uint8_t>(Opcode::CondBr) ||
                   T.Op == static_cast<uint8_t>(Opcode::Ret) ||
                   T.Op == TapeHalt;
    }
    if (!Terminates)
      continue;
    for (ValueId V : WrittenInner) {
      if (InnerIn[V] == Block) {
        EXPECT_FALSE(Out[Block][V])
            << Fn.Name << " block " << Block << ": inner %" << V
            << " is live at the block's end";
      }
    }
    WrittenInner.clear();
    ++Block;
  }
  EXPECT_EQ(Block, Fn.Blocks.size()) << Fn.Name;
  EXPECT_EQ(Inner, TF.InnerOps) << Fn.Name;
  return Inner;
}

TEST(Tape, InnerValuesStayInsideTheirBlocksDags) {
  // The invariant that lets a Tree event skip the inner rows, on every
  // suite program: each read of an inner op's value, up to its register's
  // next write, is by a pure op of the same block that is itself inner or
  // a root, and no inner value is live at its block's end.
  unsigned Inner = 0;
  for (const std::string &Name : paperBenchmarkNames()) {
    SCOPED_TRACE(Name);
    auto [M, Tape] = decodeTape(generatePaperBenchmark(Name).Source);
    for (size_t FI = 0; FI < M->Functions.size(); ++FI)
      Inner += checkInnerValues(M->Functions[FI], Tape->Funcs[FI]);
  }
  EXPECT_GT(Inner, 50000u);
}

TEST(Tape, EveryBlockEndsInTerminator) {
  // The decoder appends TapeHalt only for unterminated (unverified) IR;
  // well-formed modules must never contain it.
  auto [M, Tape] = decodeTape(
      "int f(int x) { if (x > 2) { return x * 2; } return x; }"
      "int main() { return f(7) + f(1); }");
  for (const TapeFunction &F : Tape->Funcs)
    for (const TapeInst &I : F.Code)
      EXPECT_NE(I.Op, TapeHalt);
}

TEST(Tape, FusionPreservesProfiledSemantics) {
  // Deterministic spot check on a program dense in both fusion shapes
  // against the HCPA oracle, which executes the unfused IR (the randomized
  // sweep in PropertyTest covers the general case).
  const char *Src = R"(
    int a[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) { a[i] = i; }
      for (int r = 0; r < 8; r = r + 1) {
        for (int i = 0; i < 64; i = i + 1) { a[i] = a[i] + r; }
        for (int i = 0; i < 64; i = i + 1) { a[i] = a[i] * 3; }
      }
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) { s = s + a[i] % 97; }
      return s;
    }
  )";
  expectProfileMatchesOracle(Src);
}

// --- Execute's exact work ------------------------------------------------

/// One golden line of a suite program's profiled run at the default window:
/// what the interpreter executed, what the runtime consumed and shadowed,
/// and what the tape decoder folded. Every count is deterministic, so a
/// change that moves timing but none of these moved no work.
std::string executeWorkLine(const std::string &Name) {
  std::unique_ptr<Module> M =
      compileOrDie(generatePaperBenchmark(Name).Source, Name + ".c");
  instrumentModule(*M);
  DictionaryCompressor Dict;
  KremlinRuntime RT(KremlinConfig(), Dict);
  ExecResult Exec = Interpreter(*M).run(&RT);
  EXPECT_TRUE(Exec.Ok) << Name << ": " << Exec.Error;
  ModuleTape Tape(*M, std::vector<uint64_t>(M->Globals.size(), 0));
  size_t TapeInsts = 0, Shapes = 0, Inner = 0;
  for (const TapeFunction &F : Tape.Funcs) {
    TapeInsts += F.Code.size();
    Shapes += F.Shapes.size();
    Inner += F.InnerOps;
  }
  const RuntimeStats &S = RT.stats();
  const ShadowMemory &Mem = RT.shadowMemory();
  std::string Line = formatString(
      "%s insts=%llu events=%llu regions=%llu loads=%llu stores=%llu "
      "shadow_reads=%llu shadow_writes=%llu tape_insts=%zu shapes=%zu "
      "inner=%zu",
      Name.c_str(), static_cast<unsigned long long>(Exec.DynInstructions),
      static_cast<unsigned long long>(S.Events),
      static_cast<unsigned long long>(S.DynRegionEntries),
      static_cast<unsigned long long>(S.Loads),
      static_cast<unsigned long long>(S.Stores),
      static_cast<unsigned long long>(Mem.timestampReads()),
      static_cast<unsigned long long>(Mem.timestampWrites()), TapeInsts,
      Shapes, Inner);
  for (size_t K = 0; K < NumEvKinds; ++K)
    Line += formatString(" ev.%s=%llu", EvKindNames[K],
                         static_cast<unsigned long long>(S.EventsByKind[K]));
  return Line;
}

TEST(Execute, WorkMatchesGolden) {
  // A change that means to move execute's work regenerates its lines and
  // explains each; profiles are checked elsewhere (the oracle, the paper
  // figures), so only events (in total and by kind, ev.<kind>), shapes
  // and inner ops may move for a change to the tape's event planning.
  std::ifstream In(std::string(KREMLIN_GOLDEN_DIR) + "/execute_work.txt");
  ASSERT_TRUE(In.good()) << "missing tests/golden/execute_work.txt";
  std::map<std::string, std::string> Golden;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Golden[Line.substr(0, Line.find(' '))] = Line;
  EXPECT_EQ(Golden.size(), paperBenchmarkNames().size());
  for (const std::string &Name : paperBenchmarkNames()) {
    std::string Line = executeWorkLine(Name);
    auto It = Golden.find(Name);
    EXPECT_TRUE(It != Golden.end() && It->second == Line)
        << "execute's work on " << Name
        << " differs; if the change is intended, its line in "
           "tests/golden/execute_work.txt becomes:\n"
        << Line;
  }
}

} // namespace


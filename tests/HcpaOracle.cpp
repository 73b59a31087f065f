//===- tests/HcpaOracle.cpp - Independent HCPA reference ------------------===//
//
// Each HCPA rule (paper §4.1-4.2, as this reproduction applies them) is
// stated where it is implemented: in timed() and its callers, in the
// Call/Ret cases of execute(), and in exitRegion().
//
//===----------------------------------------------------------------------===//

#include "HcpaOracle.h"

#include "TestUtil.h"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>

using namespace kremlin;
using namespace kremlin::test;

namespace {

/// One live dynamic region instance. A tracked instance (its nesting level
/// lies inside the depth window) records the availability time, relative
/// to its own start, of every register and word written while it is live;
/// anything absent from its maps reads as time 0.
struct Instance {
  RegionId Static = NoRegion;
  uint64_t Id = 0;
  bool Tracked = false;
  uint64_t Work = 0;
  Time Cp = 0; ///< Latest availability time seen so far.
  std::map<SummaryChar, uint64_t> Children;
  std::unordered_map<uint64_t, Time> Regs; ///< Keyed by regKey().
  std::unordered_map<uint64_t, Time> Mem;  ///< Keyed by word address.
};

/// An open control dependence: the branch in block Block of call Call. It
/// holds one availability time per tracked instance live at the branch.
struct ControlDep {
  uint64_t Call = 0;
  BlockId Merge = NoBlock;
  BlockId Block = NoBlock;
  std::unordered_map<uint64_t, Time> Times; ///< Keyed by instance id.
};

uint64_t regKey(uint64_t Call, ValueId Reg) { return (Call << 32) | Reg; }

Time lookup(const std::unordered_map<uint64_t, Time> &Map, uint64_t Key) {
  auto It = Map.find(Key);
  return It == Map.end() ? 0 : It->second;
}

/// MiniC semantics of the value-computing opcodes: trap-free, wrapping
/// integer arithmetic (x/0 == x%0 == 0) and 0/1 comparison results.
uint64_t evaluate(Opcode Op, uint64_t A, uint64_t B) {
  const int64_t X = static_cast<int64_t>(A), Y = static_cast<int64_t>(B);
  const double FX = std::bit_cast<double>(A), FY = std::bit_cast<double>(B);
  auto Bits = [](double V) { return std::bit_cast<uint64_t>(V); };
  const bool Overflows = X == INT64_MIN && Y == -1;
  // clang-format off
  switch (Op) {
  case Opcode::Move: return A;
  case Opcode::Add: case Opcode::PtrAdd: return A + B;
  case Opcode::Sub: return A - B;
  case Opcode::Mul: return A * B;
  case Opcode::Div: return Y == 0 ? 0 : Overflows ? A : uint64_t(X / Y);
  case Opcode::Rem: return Y == 0 || Overflows ? 0 : uint64_t(X % Y);
  case Opcode::FAdd: return Bits(FX + FY);
  case Opcode::FSub: return Bits(FX - FY);
  case Opcode::FMul: return Bits(FX * FY);
  case Opcode::FDiv: return Bits(FY == 0.0 ? 0.0 : FX / FY);
  case Opcode::CmpEQ: return X == Y;
  case Opcode::CmpNE: return X != Y;
  case Opcode::CmpLT: return X < Y;
  case Opcode::CmpLE: return X <= Y;
  case Opcode::CmpGT: return X > Y;
  case Opcode::CmpGE: return X >= Y;
  case Opcode::FCmpEQ: return FX == FY;
  case Opcode::FCmpNE: return FX != FY;
  case Opcode::FCmpLT: return FX < FY;
  case Opcode::FCmpLE: return FX <= FY;
  case Opcode::FCmpGT: return FX > FY;
  case Opcode::FCmpGE: return FX >= FY;
  case Opcode::And: return A != 0 && B != 0;
  case Opcode::Or: return A != 0 || B != 0;
  case Opcode::Not: return A == 0;
  case Opcode::Neg: return 0 - A;
  case Opcode::FNeg: return Bits(-FX);
  case Opcode::IntToFloat: return Bits(static_cast<double>(X));
  case Opcode::FloatToInt: return uint64_t(static_cast<int64_t>(FX));
  default:
    ADD_FAILURE() << "oracle: unexpected opcode " << static_cast<int>(Op);
    return 0;
  }
  // clang-format on
}

/// Outcome of one oracle execution.
struct OracleResult {
  int64_t ExitValue = 0;        ///< main's value (0 when main is void).
  uint64_t DynInstructions = 0; ///< Region markers included.
};

/// Runs main() of an instrumented module under the depth window and
/// latencies of a KremlinConfig, interning one summary per dynamic region
/// into a DictionaryCompressor in exit order. Malformed IR fails the
/// current test.
class Oracle {
public:
  Oracle(const Module &M, const KremlinConfig &Cfg, DictionaryCompressor &Sink)
      : M(M), Cfg(Cfg), Sink(Sink) {
    for (const GlobalArray &G : M.Globals) {
      GlobalBase.push_back(Mem.size());
      Mem.resize(Mem.size() + G.SizeWords);
    }
  }

  OracleResult run() {
    OracleResult R;
    const Function &F = M.Functions.at(M.mainFunction());
    uint64_t Ret = execute(F, ++NextCall, {}, /*CallerCall=*/0, NoValue);
    EXPECT_TRUE(Regions.empty()) << "oracle: regions left open";
    R.ExitValue = F.ReturnTy == Type::Void ? 0 : static_cast<int64_t>(Ret);
    R.DynInstructions = Steps;
    return R;
  }

private:
  const Module &M;
  const KremlinConfig &Cfg;
  DictionaryCompressor &Sink;

  std::vector<uint64_t> Mem; ///< Globals, then the frame-array stack.
  std::vector<uint64_t> GlobalBase;
  std::vector<Instance> Regions; ///< The dynamic region stack.
  std::vector<ControlDep> Cds;   ///< Open control dependences.
  uint64_t NextCall = 0;
  uint64_t NextInstance = 0;
  uint64_t Steps = 0;

  // --- Timing -------------------------------------------------------------

  /// The control dependence in force in call \p Call at instance \p R: the
  /// top of the stack, unless it belongs to another call (control scopes
  /// never cross a call).
  Time cdTime(const Instance &R, uint64_t Call) const {
    if (Cds.empty() || Cds.back().Call != Call)
      return 0;
    return lookup(Cds.back().Times, R.Id);
  }

  Time regTime(const Instance &R, uint64_t Call, ValueId Reg) const {
    return Reg == NoValue ? 0 : lookup(R.Regs, regKey(Call, Reg));
  }

  /// Work accrues to the innermost region only; exitRegion() passes it up.
  void addWork(Opcode Op) {
    if (!Regions.empty())
      Regions.back().Work += latencyOf(Op);
  }

  /// Times one operation of call \p Call: at every tracked instance it
  /// completes its latency after the latest of its inputs, which are the
  /// control dependence unless \p UseCd is false, registers \p A and \p B,
  /// and the word at \p LoadAddr when given. \p Put records the time.
  template <typename PutFn>
  void timed(Opcode Op, uint64_t Call, bool UseCd, ValueId A, ValueId B,
             const uint64_t *LoadAddr, PutFn Put) {
    addWork(Op);
    Time Lat = latencyOf(Op);
    for (Instance &R : Regions) {
      if (!R.Tracked)
        continue;
      Time T = std::max({UseCd ? cdTime(R, Call) : 0, regTime(R, Call, A),
                         regTime(R, Call, B),
                         LoadAddr ? lookup(R.Mem, *LoadAddr) : 0}) +
               Lat;
      R.Cp = std::max(R.Cp, T);
      Put(R, T);
    }
  }

  /// Dst = Op(A, B); NoValue marks an unused operand or result.
  void compute(Opcode Op, uint64_t Call, ValueId Dst, ValueId A, ValueId B,
               bool BreakDep) {
    // Induction/reduction updates drop the old value and the control
    // dependence: the easy-to-break dependences of §4.1.
    timed(Op, Call, !BreakDep, BreakDep ? NoValue : A, B, nullptr,
          [&](Instance &R, Time T) {
            if (Dst != NoValue)
              R.Regs[regKey(Call, Dst)] = T;
          });
  }

  void condBranch(uint64_t Call, ValueId Cond, BlockId Merge, BlockId Block) {
    // A new dynamic instance of the branch on top replaces it, so its
    // enclosing dependence is the entry below.
    if (!Cds.empty() && Cds.back().Call == Call &&
        Cds.back().Merge == Merge && Cds.back().Block == Block)
      Cds.pop_back();
    ControlDep D{Call, Merge, Block, {}};
    timed(Opcode::CondBr, Call, true, Cond, NoValue, nullptr,
          [&](Instance &R, Time T) { D.Times[R.Id] = T; });
    Cds.push_back(std::move(D));
  }

  /// A branch's control dependence ends at its merge block, or when its
  /// own block is entered again.
  void enterBlock(uint64_t Call, BlockId B) {
    while (!Cds.empty() && Cds.back().Call == Call &&
           (Cds.back().Merge == B || Cds.back().Block == B))
      Cds.pop_back();
  }

  /// Copies register \p From's times to register \p To at every instance.
  void copyTimes(uint64_t From, uint64_t To) {
    for (Instance &R : Regions) {
      auto It = R.Regs.find(From);
      if (It != R.Regs.end())
        R.Regs[To] = It->second;
      else
        R.Regs.erase(To);
    }
  }

  // --- Regions ------------------------------------------------------------

  void enterRegion(RegionId Static) {
    unsigned Level = static_cast<unsigned>(Regions.size());
    Instance R;
    R.Static = Static;
    R.Id = ++NextInstance;
    R.Tracked = Level >= Cfg.MinLevel && Level - Cfg.MinLevel < Cfg.NumLevels;
    Regions.push_back(std::move(R));
  }

  void exitRegion(RegionId Static) {
    if (Regions.empty() || Regions.back().Static != Static) {
      ADD_FAILURE() << "oracle: mismatched exit of region " << Static;
      return;
    }
    Instance R = std::move(Regions.back());
    Regions.pop_back();
    // Outside the depth window no times are measured: cp = work. Inside
    // it, cp is still clamped to work.
    DynRegionSummary S;
    S.Static = R.Static;
    S.Work = R.Work;
    S.Cp = R.Tracked ? std::min(R.Cp, R.Work) : R.Work;
    S.Children.assign(R.Children.begin(), R.Children.end());
    SummaryChar C = Sink.intern(std::move(S));
    if (Regions.empty()) {
      Sink.onRootExit(C);
      return;
    }
    Regions.back().Work += R.Work;
    ++Regions.back().Children[C];
  }

  // --- Execution ----------------------------------------------------------

  /// Runs \p F as dynamic call \p Call. The caller has copied the argument
  /// times; \p CallerDst in \p CallerCall receives the return value's.
  uint64_t execute(const Function &F, uint64_t Call,
                   const std::vector<uint64_t> &Args, uint64_t CallerCall,
                   ValueId CallerDst) {
    std::vector<uint64_t> Regs(F.NumValues, 0);
    std::copy(Args.begin(), Args.end(), Regs.begin());
    // Fresh, zeroed frame arrays on top of the stack.
    const uint64_t FrameBase = Mem.size();
    std::vector<uint64_t> ArrayBase;
    for (const FrameArray &A : F.FrameArrays) {
      ArrayBase.push_back(Mem.size());
      Mem.resize(Mem.size() + A.SizeWords, 0);
    }

    uint64_t RetValue = 0;
    BlockId Cur = 0;
    for (bool Returned = false; !Returned;) {
      enterBlock(Call, Cur);
      for (const Instruction &I : F.Blocks[Cur].Insts) {
        ++Steps;
        switch (I.Op) {
        case Opcode::ConstInt:
        case Opcode::ConstFloat:
        case Opcode::GlobalAddr:
        case Opcode::FrameAddr:
          Regs[I.Result] =
              I.Op == Opcode::ConstInt     ? static_cast<uint64_t>(I.IntImm)
              : I.Op == Opcode::ConstFloat ? std::bit_cast<uint64_t>(I.FloatImm)
              : I.Op == Opcode::GlobalAddr ? GlobalBase[I.Aux]
                                           : ArrayBase[I.Aux];
          // Available at time 0 at every level, whatever the control
          // dependence.
          addWork(I.Op);
          for (Instance &R : Regions)
            R.Regs.erase(regKey(Call, I.Result));
          break;
        case Opcode::Load: {
          const uint64_t Addr = Regs[I.A];
          timed(I.Op, Call, true, I.A, NoValue, &Addr, [&](Instance &R, Time T) {
            R.Regs[regKey(Call, I.Result)] = T;
          });
          Regs[I.Result] = Mem.at(Addr);
          break;
        }
        case Opcode::Store:
          // Flow dependences only: the word's previous time is no input.
          timed(I.Op, Call, true, I.B, I.A, nullptr,
                [&](Instance &R, Time T) { R.Mem[Regs[I.A]] = T; });
          Mem.at(Regs[I.A]) = Regs[I.B];
          break;
        case Opcode::RegionEnter:
          enterRegion(I.Aux);
          break;
        case Opcode::RegionExit:
          exitRegion(I.Aux);
          break;
        case Opcode::Call: {
          // Parameters and return values carry their times across the
          // call; the callee's Ret delivers the result's.
          uint64_t CalleeCall = ++NextCall;
          std::span<const ValueId> Args = F.callArgs(I);
          std::vector<uint64_t> CallArgs;
          for (size_t K = 0; K < Args.size(); ++K) {
            CallArgs.push_back(Regs[Args[K]]);
            copyTimes(regKey(Call, Args[K]),
                      regKey(CalleeCall, static_cast<ValueId>(K)));
          }
          uint64_t Ret = execute(M.Functions[I.Aux], CalleeCall, CallArgs,
                                 Call, I.Result);
          if (I.Result != NoValue)
            Regs[I.Result] = Ret;
          compute(Opcode::Call, Call, I.Result, I.Result, NoValue, false);
          break;
        }
        case Opcode::Ret:
          if (I.A != NoValue)
            RetValue = Regs[I.A];
          compute(Opcode::Ret, Call, NoValue, I.A, NoValue, false);
          if (I.A != NoValue && CallerDst != NoValue)
            copyTimes(regKey(Call, I.A), regKey(CallerCall, CallerDst));
          Returned = true;
          break;
        case Opcode::Br:
          compute(Opcode::Br, Call, NoValue, NoValue, NoValue, false);
          Cur = I.Aux;
          break;
        case Opcode::CondBr:
          condBranch(Call, I.A, I.MergeBlock, Cur);
          Cur = Regs[I.A] != 0 ? I.Aux : I.Aux2;
          break;
        default:
          Regs[I.Result] = evaluate(I.Op, I.A != NoValue ? Regs[I.A] : 0,
                                    I.B != NoValue ? Regs[I.B] : 0);
          compute(I.Op, Call, I.Result, I.A, I.B,
                  I.IsInductionUpdate || I.IsReductionUpdate);
          break;
        }
        if (isTerminator(I.Op))
          break;
      }
    }

    // The frame dies: its control scopes, and the times of its registers
    // and of its arrays, whose words the next frame will reuse.
    while (!Cds.empty() && Cds.back().Call == Call)
      Cds.pop_back();
    for (Instance &R : Regions) {
      for (uint64_t W = FrameBase; W < Mem.size(); ++W)
        R.Mem.erase(W);
      for (ValueId V = 0; V < F.NumValues; ++V)
        R.Regs.erase(regKey(Call, V));
    }
    Mem.resize(FrameBase);
    return RetValue;
  }
};

} // namespace

void kremlin::test::runOracle(const Module &M, const KremlinConfig &Cfg,
                              DictionaryCompressor &Dict) {
  Oracle(M, Cfg, Dict).run();
}

void kremlin::test::expectProfileMatchesOracle(const Module &M,
                                               const KremlinConfig &Cfg) {
  DictionaryCompressor GotDict;
  KremlinRuntime RT(Cfg, GotDict);
  ExecResult Exec = Interpreter(M).run(&RT);
  ASSERT_TRUE(Exec.Ok) << Exec.Error;
  ParallelismProfile GotProfile(M, GotDict);
  DictionaryCompressor Dict;
  OracleResult Want = Oracle(M, Cfg, Dict).run();
  ParallelismProfile Profile(M, Dict);

  EXPECT_EQ(Exec.ExitValue, Want.ExitValue);
  EXPECT_EQ(Exec.DynInstructions, Want.DynInstructions);
  ASSERT_EQ(GotDict.alphabet().size(), Dict.alphabet().size());
  for (size_t C = 0; C < Dict.alphabet().size(); ++C)
    EXPECT_TRUE(GotDict.alphabet()[C] == Dict.alphabet()[C])
        << "summary " << C << " diverges";
  EXPECT_EQ(GotDict.roots(), Dict.roots());
  EXPECT_EQ(GotDict.numDynamicRegions(), Dict.numDynamicRegions());
  ASSERT_EQ(GotProfile.entries().size(), Profile.entries().size());
  for (size_t R = 0; R < Profile.entries().size(); ++R) {
    const RegionProfileEntry &Got = GotProfile.entries()[R];
    const RegionProfileEntry &Exp = Profile.entries()[R];
    SCOPED_TRACE(M.Regions[R].sourceSpan());
    EXPECT_EQ(Got.Executed, Exp.Executed);
    EXPECT_EQ(Got.Instances, Exp.Instances);
    EXPECT_EQ(Got.TotalWork, Exp.TotalWork);
    EXPECT_EQ(Got.TotalCp, Exp.TotalCp);
    EXPECT_EQ(Got.TotalChildren, Exp.TotalChildren);
    EXPECT_EQ(Got.SelfParallelism, Exp.SelfParallelism);
    EXPECT_EQ(Got.TotalParallelism, Exp.TotalParallelism);
    EXPECT_EQ(Got.CoveragePct, Exp.CoveragePct);
    EXPECT_EQ(Got.Class, Exp.Class);
  }
}

void kremlin::test::expectProfileMatchesOracle(const std::string &Source,
                                               const KremlinConfig &Cfg) {
  std::unique_ptr<Module> M = compileOrDie(Source);
  InstrumentResult IR = instrumentModule(*M);
  for (const std::string &W : IR.Warnings)
    ADD_FAILURE() << "instrumenter: " << W;
  expectProfileMatchesOracle(*M, Cfg);
}

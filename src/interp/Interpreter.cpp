//===- interp/Interpreter.cpp ---------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Tape.h"
#include "rt/ProfEvent.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

// Threaded dispatch: computed goto on GCC/Clang, a tight switch loop
// elsewhere. One macro-generated opcode body serves both.
#if defined(__GNUC__) || defined(__clang__)
#define KREMLIN_THREADED_DISPATCH 1
#define KI_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#else
#define KREMLIN_THREADED_DISPATCH 0
#define KI_UNLIKELY(x) (x)
#endif

using namespace kremlin;

namespace {

/// One run's flat word-addressed program memory: globals at the bottom, the
/// frame-array stack above them. A single calloc reserves it; a block of
/// the default size (32 MiB) comes straight from the kernel's zero pages,
/// so only the pages the program touches are ever faulted in.
class ProgramMemory {
public:
  /// Reserves \p GlobalWords + \p StackWords zeroed words; on failure
  /// (including a size that overflows) reserved() is false.
  ProgramMemory(uint64_t GlobalWords, uint64_t StackWords) {
    if (StackWords > std::numeric_limits<uint64_t>::max() - GlobalWords)
      return;
    uint64_t Words = GlobalWords + StackWords;
    if (Words > std::numeric_limits<size_t>::max() / sizeof(uint64_t))
      return;
    // calloc(0) may legitimately return null; ask for one word instead.
    Mem = static_cast<uint64_t *>(
        std::calloc(Words ? Words : 1, sizeof(uint64_t)));
    if (Mem)
      Size = Words;
  }
  ~ProgramMemory() { std::free(Mem); }
  ProgramMemory(const ProgramMemory &) = delete;
  ProgramMemory &operator=(const ProgramMemory &) = delete;

  bool reserved() const { return Mem != nullptr; }
  uint64_t *data() { return Mem; }
  uint64_t size() const { return Size; }
  uint64_t &operator[](uint64_t W) { return Mem[W]; }

private:
  uint64_t *Mem = nullptr;
  uint64_t Size = 0;
};

/// Per-run reference engine (memory, step budget, error state): the
/// original switch-over-IR interpreter, kept as the differential oracle for
/// the tape engine (InterpConfig::UseTape == false).
class Engine {
public:
  Engine(const Module &M, const InterpConfig &Cfg,
         const std::vector<uint64_t> &GlobalBase, uint64_t GlobalWords,
         ProgramMemory &Heap, KremlinRuntime *RT)
      : M(M), Cfg(Cfg), GlobalBase(GlobalBase), RT(RT), Heap(Heap),
        SP(GlobalWords) {}

  ExecResult run() {
    ExecResult Result;
    FuncId Main = M.mainFunction();
    if (Main == NoFunc) {
      Result.Error = "module has no main() function";
      Result.Err = Status::error(ErrorCode::ExecutionError, Result.Error);
      return Result;
    }
    const Function &F = M.Functions[Main];
    if (F.NumParams != 0) {
      Result.Error = "main() must take no parameters";
      Result.Err = Status::error(ErrorCode::ExecutionError, Result.Error);
      return Result;
    }
    if (RT)
      RT->pushFrame(F.NumValues);
    uint64_t Ret = callFunction(F, /*Args=*/{}, /*CallerDst=*/NoValue);
    if (RT) {
      RT->popFrame();
      // The per-block poll cannot see a trip raised by the final block's
      // own hooks; close that window here.
      if (Error.empty() && RT->failed())
        fail(RT->status());
    }
    Result.DynInstructions = Steps;
    if (!Error.empty()) {
      Result.Error = Error;
      Result.Err = St.ok() ? Status::error(ErrorCode::ExecutionError, Error)
                           : St;
      return Result;
    }
    Result.Ok = true;
    Result.ExitValue = F.ReturnTy == Type::Void
                           ? 0
                           : static_cast<int64_t>(Ret);
    return Result;
  }

private:
  const Module &M;
  const InterpConfig &Cfg;
  const std::vector<uint64_t> &GlobalBase;
  KremlinRuntime *RT;

  ProgramMemory &Heap;
  uint64_t SP; ///< Next free stack word.
  uint64_t Steps = 0;
  unsigned CallDepth = 0;
  std::string Error;
  Status St;

  void fail(const std::string &Msg) { fail(ErrorCode::ExecutionError, Msg); }

  void fail(ErrorCode Code, const std::string &Msg) {
    if (Error.empty()) {
      Error = Msg;
      St = Status::error(Code, Msg);
    }
  }

  void fail(const Status &S) {
    if (Error.empty()) {
      Error = S.message();
      St = S;
    }
  }

  static double toF(uint64_t Bits) { return std::bit_cast<double>(Bits); }
  static uint64_t fromF(double V) { return std::bit_cast<uint64_t>(V); }
  static int64_t toI(uint64_t Bits) { return static_cast<int64_t>(Bits); }
  static uint64_t fromI(int64_t V) { return static_cast<uint64_t>(V); }

  /// Executes the body of \p F. The caller has already pushed the runtime
  /// frame and copied parameter times; \p CallerDst is where the runtime
  /// should copy the return value's times (NoValue for none).
  uint64_t callFunction(const Function &F, const std::vector<uint64_t> &Args,
                        ValueId CallerDst) {
    if (++CallDepth > Cfg.MaxCallDepth) {
      fail(ErrorCode::ResourceExhausted,
           formatString("call depth exceeded in @%s", F.Name.c_str()));
      --CallDepth;
      return 0;
    }
    std::vector<uint64_t> Regs(F.NumValues, 0);
    for (size_t I = 0; I < Args.size(); ++I)
      Regs[I] = Args[I];

    // Bump-allocate frame arrays.
    uint64_t FrameBase = SP;
    std::vector<uint64_t> ArrayBase(F.FrameArrays.size());
    for (size_t A = 0; A < F.FrameArrays.size(); ++A) {
      ArrayBase[A] = SP;
      SP += F.FrameArrays[A].SizeWords;
    }
    if (SP > Heap.size()) {
      fail(ErrorCode::ResourceExhausted,
           formatString("stack overflow in @%s", F.Name.c_str()));
      SP = FrameBase;
      --CallDepth;
      return 0;
    }
    // Zero this frame's array storage (fresh locals every call).
    for (uint64_t W = FrameBase; W < SP; ++W)
      Heap[W] = 0;

    uint64_t RetValue = 0;
    BlockId Cur = 0;
    bool Returned = false;
    while (!Returned && Error.empty()) {
      // Guardrail poll, once per basic block: shadow byte budget, region
      // depth cap, injected allocation faults. Keeps the per-instruction
      // path free of checks while bounding how far a tripped run proceeds.
      if (RT && RT->failed()) {
        fail(RT->status());
        break;
      }
      if (RT)
        RT->popControlDepsAtBlock(Cur);
      const BasicBlock &BB = F.Blocks[Cur];
      for (const Instruction &I : BB.Insts) {
        if (++Steps > Cfg.MaxSteps) {
          fail(ErrorCode::ResourceExhausted,
               "dynamic instruction budget exceeded");
          break;
        }
        switch (I.Op) {
        case Opcode::ConstInt:
          Regs[I.Result] = fromI(I.IntImm);
          hook(I);
          break;
        case Opcode::ConstFloat:
          Regs[I.Result] = fromF(I.FloatImm);
          hook(I);
          break;
        case Opcode::Move:
          Regs[I.Result] = Regs[I.A];
          hook(I);
          break;
        case Opcode::GlobalAddr:
          Regs[I.Result] = GlobalBase[I.Aux];
          hook(I);
          break;
        case Opcode::FrameAddr:
          Regs[I.Result] = ArrayBase[I.Aux];
          hook(I);
          break;
        case Opcode::PtrAdd:
          Regs[I.Result] = Regs[I.A] + Regs[I.B];
          hook(I);
          break;
        case Opcode::Load: {
          uint64_t Addr = Regs[I.A];
          if (Addr >= Heap.size()) {
            fail(formatString("@%s:%u: load out of bounds (addr %llu)",
                              F.Name.c_str(), I.Line,
                              static_cast<unsigned long long>(Addr)));
            break;
          }
          Regs[I.Result] = Heap[Addr];
          if (RT)
            RT->onLoad(I.Result, I.A, Addr);
          break;
        }
        case Opcode::Store: {
          uint64_t Addr = Regs[I.A];
          if (Addr >= Heap.size()) {
            fail(formatString("@%s:%u: store out of bounds (addr %llu)",
                              F.Name.c_str(), I.Line,
                              static_cast<unsigned long long>(Addr)));
            break;
          }
          Heap[Addr] = Regs[I.B];
          if (RT)
            RT->onStore(I.B, I.A, Addr);
          break;
        }
        case Opcode::RegionEnter:
          if (RT)
            RT->enterRegion(I.Aux);
          break;
        case Opcode::RegionExit:
          if (RT)
            RT->exitRegion(I.Aux);
          break;
        case Opcode::Call: {
          const Function &Callee = M.Functions[I.Aux];
          std::vector<uint64_t> CallArgs(I.CallArgs.size());
          for (size_t K = 0; K < I.CallArgs.size(); ++K)
            CallArgs[K] = Regs[I.CallArgs[K]];
          if (RT) {
            RT->pushFrame(Callee.NumValues);
            for (size_t K = 0; K < I.CallArgs.size(); ++K)
              RT->copyParamFromCaller(static_cast<ValueId>(K),
                                      I.CallArgs[K]);
          }
          uint64_t Ret = callFunction(Callee, CallArgs, I.Result);
          if (RT)
            RT->popFrame();
          if (I.Result != NoValue) {
            Regs[I.Result] = Ret;
            if (RT) {
              // The return value's times were copied into I.Result by the
              // callee's Ret; fold in control deps and the call latency.
              RT->onOp(Opcode::Call, I.Result, I.Result, NoValue,
                       /*BreakDepA=*/false);
            }
          } else if (RT) {
            RT->onOp(Opcode::Call, NoValue, NoValue, NoValue, false);
          }
          break;
        }
        case Opcode::Ret:
          if (I.A != NoValue)
            RetValue = Regs[I.A];
          if (RT) {
            RT->onOp(Opcode::Ret, NoValue, I.A, NoValue, false);
            if (I.A != NoValue && CallerDst != NoValue)
              RT->copyReturnToCaller(CallerDst, I.A);
          }
          Returned = true;
          break;
        case Opcode::Br:
          if (RT)
            RT->onOp(Opcode::Br, NoValue, NoValue, NoValue, false);
          Cur = I.Aux;
          break;
        case Opcode::CondBr: {
          bool Taken = Regs[I.A] != 0;
          if (RT)
            RT->onCondBranch(I.A,
                             I.MergeBlock == NoBlock ? UINT32_MAX
                                                     : I.MergeBlock,
                             Cur);
          Cur = Taken ? I.Aux : I.Aux2;
          break;
        }
        default:
          execComputational(I, Regs);
          break;
        }
        if (Returned || isTerminator(I.Op) || !Error.empty())
          break;
      }
      if (!Returned && Error.empty() &&
          !isTerminator(F.Blocks[Cur].Insts.back().Op))
        fail(ErrorCode::Internal,
             formatString("@%s: block without terminator reached",
                          F.Name.c_str()));
    }

    // Release this frame's array storage (and its shadow pages).
    if (RT && SP > FrameBase)
      RT->releaseShadowRange(FrameBase, SP - FrameBase);
    SP = FrameBase;
    --CallDepth;
    return RetValue;
  }

  /// Arithmetic/compare/logic/cast opcodes.
  void execComputational(const Instruction &I, std::vector<uint64_t> &Regs) {
    uint64_t A = I.A != NoValue ? Regs[I.A] : 0;
    uint64_t B = I.B != NoValue ? Regs[I.B] : 0;
    uint64_t R = 0;
    switch (I.Op) {
    // MiniC integer arithmetic is trap-free with wrap-around semantics
    // (suite benchmarks lean on overflowing LCG-style PRNGs), so compute
    // in uint64_t — two's complement makes the bit patterns identical.
    case Opcode::Add:
      R = A + B;
      break;
    case Opcode::Sub:
      R = A - B;
      break;
    case Opcode::Mul:
      R = A * B;
      break;
    case Opcode::Div:
      if (toI(B) == 0)
        R = 0;
      else if (toI(A) == INT64_MIN && toI(B) == -1)
        R = fromI(INT64_MIN); // The one quotient that overflows: wrap.
      else
        R = fromI(toI(A) / toI(B));
      break;
    case Opcode::Rem:
      if (toI(B) == 0 || (toI(A) == INT64_MIN && toI(B) == -1))
        R = 0;
      else
        R = fromI(toI(A) % toI(B));
      break;
    case Opcode::FAdd:
      R = fromF(toF(A) + toF(B));
      break;
    case Opcode::FSub:
      R = fromF(toF(A) - toF(B));
      break;
    case Opcode::FMul:
      R = fromF(toF(A) * toF(B));
      break;
    case Opcode::FDiv:
      R = fromF(toF(B) == 0.0 ? 0.0 : toF(A) / toF(B));
      break;
    case Opcode::CmpEQ:
      R = toI(A) == toI(B);
      break;
    case Opcode::CmpNE:
      R = toI(A) != toI(B);
      break;
    case Opcode::CmpLT:
      R = toI(A) < toI(B);
      break;
    case Opcode::CmpLE:
      R = toI(A) <= toI(B);
      break;
    case Opcode::CmpGT:
      R = toI(A) > toI(B);
      break;
    case Opcode::CmpGE:
      R = toI(A) >= toI(B);
      break;
    case Opcode::FCmpEQ:
      R = toF(A) == toF(B);
      break;
    case Opcode::FCmpNE:
      R = toF(A) != toF(B);
      break;
    case Opcode::FCmpLT:
      R = toF(A) < toF(B);
      break;
    case Opcode::FCmpLE:
      R = toF(A) <= toF(B);
      break;
    case Opcode::FCmpGT:
      R = toF(A) > toF(B);
      break;
    case Opcode::FCmpGE:
      R = toF(A) >= toF(B);
      break;
    case Opcode::And:
      R = (A != 0) && (B != 0);
      break;
    case Opcode::Or:
      R = (A != 0) || (B != 0);
      break;
    case Opcode::Not:
      R = A == 0;
      break;
    case Opcode::Neg:
      R = fromI(-toI(A));
      break;
    case Opcode::FNeg:
      R = fromF(-toF(A));
      break;
    case Opcode::IntToFloat:
      R = fromF(static_cast<double>(toI(A)));
      break;
    case Opcode::FloatToInt:
      R = fromI(static_cast<int64_t>(toF(A)));
      break;
    default:
      kremlin_unreachable("non-computational opcode in execComputational");
    }
    Regs[I.Result] = R;
    hook(I);
  }

  /// Runtime hook for register-only operations.
  void hook(const Instruction &I) {
    if (!RT)
      return;
    RT->onOp(I.Op, I.Result, I.A, I.B,
             I.IsInductionUpdate || I.IsReductionUpdate);
  }
};

/// Shared two-operand evaluator for the fused superinstructions; semantics
/// match the per-opcode cases of Engine::execComputational exactly.
uint64_t evalBinary(uint8_t Op, uint64_t A, uint64_t B) {
  auto toF = [](uint64_t Bits) { return std::bit_cast<double>(Bits); };
  auto fromF = [](double V) { return std::bit_cast<uint64_t>(V); };
  auto toI = [](uint64_t Bits) { return static_cast<int64_t>(Bits); };
  auto fromI = [](int64_t V) { return static_cast<uint64_t>(V); };
  switch (static_cast<Opcode>(Op)) {
  case Opcode::Add:
    return A + B;
  case Opcode::Sub:
    return A - B;
  case Opcode::Mul:
    return A * B;
  case Opcode::Div:
    if (toI(B) == 0)
      return 0;
    if (toI(A) == INT64_MIN && toI(B) == -1)
      return fromI(INT64_MIN);
    return fromI(toI(A) / toI(B));
  case Opcode::Rem:
    if (toI(B) == 0 || (toI(A) == INT64_MIN && toI(B) == -1))
      return 0;
    return fromI(toI(A) % toI(B));
  case Opcode::FAdd:
    return fromF(toF(A) + toF(B));
  case Opcode::FSub:
    return fromF(toF(A) - toF(B));
  case Opcode::FMul:
    return fromF(toF(A) * toF(B));
  case Opcode::FDiv:
    return fromF(toF(B) == 0.0 ? 0.0 : toF(A) / toF(B));
  case Opcode::CmpEQ:
    return toI(A) == toI(B);
  case Opcode::CmpNE:
    return toI(A) != toI(B);
  case Opcode::CmpLT:
    return toI(A) < toI(B);
  case Opcode::CmpLE:
    return toI(A) <= toI(B);
  case Opcode::CmpGT:
    return toI(A) > toI(B);
  case Opcode::CmpGE:
    return toI(A) >= toI(B);
  case Opcode::FCmpEQ:
    return toF(A) == toF(B);
  case Opcode::FCmpNE:
    return toF(A) != toF(B);
  case Opcode::FCmpLT:
    return toF(A) < toF(B);
  case Opcode::FCmpLE:
    return toF(A) <= toF(B);
  case Opcode::FCmpGT:
    return toF(A) > toF(B);
  case Opcode::FCmpGE:
    return toF(A) >= toF(B);
  case Opcode::And:
    return (A != 0) && (B != 0);
  case Opcode::Or:
    return (A != 0) || (B != 0);
  default:
    kremlin_unreachable("non-binary opcode in evalBinary");
  }
}

/// The fast engine: threaded dispatch over the pre-decoded tape, streaming
/// profiling events into a batch buffer that is flushed to
/// KremlinRuntime::consumeBatch. Event order matches the reference engine's
/// direct hook calls exactly, so profiles are bit-identical; the guardrail
/// poll (RT->failed()) runs after each flush and is acted on at the next
/// branch, mirroring the reference engine's per-block poll at a coarser
/// grain.
class TapeEngine {
public:
  TapeEngine(const Module &M, const ModuleTape &ModTape,
             const InterpConfig &Cfg, uint64_t GlobalWords,
             ProgramMemory &Heap, KremlinRuntime *RT)
      : M(M), ModTape(ModTape), Cfg(Cfg), RT(RT), Heap(Heap),
        SP(GlobalWords), EvBuf(ProfEventBatchSize) {}

  ExecResult run() {
    ExecResult Result;
    FuncId Main = M.mainFunction();
    if (Main == NoFunc) {
      Result.Error = "module has no main() function";
      Result.Err = Status::error(ErrorCode::ExecutionError, Result.Error);
      return Result;
    }
    const Function &F = M.Functions[Main];
    if (F.NumParams != 0) {
      Result.Error = "main() must take no parameters";
      Result.Err = Status::error(ErrorCode::ExecutionError, Result.Error);
      return Result;
    }
    const TapeFunction &TMain = ModTape.Funcs[Main];
    ensureRegCapacity(TMain.NumValues);
    uint64_t Ret;
    if (RT) {
      emitPushFrame(F.NumValues);
      Ret = callFunction<true>(TMain, nullptr, nullptr, 0, NoValue);
      emitPopFrame();
      flush();
      // A guardrail can trip inside the final consumeBatch, after the last
      // in-run Bail poll: check once more so a short run cannot finish
      // "ok" with a tripped runtime.
      if (Error.empty() && RT->failed())
        fail(RT->status());
    } else {
      Ret = callFunction<false>(TMain, nullptr, nullptr, 0, NoValue);
    }
    Result.DynInstructions = Steps;
    if (!Error.empty()) {
      Result.Error = Error;
      Result.Err = St.ok() ? Status::error(ErrorCode::ExecutionError, Error)
                           : St;
      return Result;
    }
    Result.Ok = true;
    Result.ExitValue = F.ReturnTy == Type::Void
                           ? 0
                           : static_cast<int64_t>(Ret);
    return Result;
  }

private:
  const Module &M;
  const ModuleTape &ModTape;
  const InterpConfig &Cfg;
  KremlinRuntime *RT;

  ProgramMemory &Heap;
  uint64_t SP; ///< Next free stack word.
  uint64_t Steps = 0;
  unsigned CallDepth = 0;
  std::string Error;
  Status St;

  /// One arena for every live frame's registers; frames are [base, base +
  /// NumValues) slices. Callers guarantee capacity before recursing so a
  /// callee never moves the arena under its caller's register pointer.
  std::vector<uint64_t> RegArena;
  size_t RegTop = 0;

  /// Profiling event batch (producer side of the ProfEvent stream).
  std::vector<ProfEvent> EvBuf;
  size_t EvN = 0;
  /// Elided zero-latency const ops since the last flush (see NoEmitFlag).
  uint64_t FreeOps = 0;
  /// Set when a post-flush guardrail poll failed; acted on at branches.
  bool Bail = false;

  void fail(const std::string &Msg) { fail(ErrorCode::ExecutionError, Msg); }

  void fail(ErrorCode Code, const std::string &Msg) {
    if (Error.empty()) {
      Error = Msg;
      St = Status::error(Code, Msg);
    }
  }

  void fail(const Status &S) {
    if (Error.empty()) {
      Error = S.message();
      St = S;
    }
  }

  static double toF(uint64_t Bits) { return std::bit_cast<double>(Bits); }
  static uint64_t fromF(double V) { return std::bit_cast<uint64_t>(V); }
  static int64_t toI(uint64_t Bits) { return static_cast<int64_t>(Bits); }
  static uint64_t fromI(int64_t V) { return static_cast<uint64_t>(V); }

  void ensureRegCapacity(size_t Needed) {
    if (RegArena.size() < Needed)
      RegArena.resize(std::max<size_t>(Needed, RegArena.size() * 2));
  }

  // --- Event production ---------------------------------------------------

  void flush() {
    if (FreeOps) {
      RT->noteFreeOps(FreeOps);
      FreeOps = 0;
    }
    if (EvN == 0)
      return;
    RT->consumeBatch(EvBuf.data(), EvN);
    EvN = 0;
    if (RT->failed())
      Bail = true;
  }

  ProfEvent &push(EvKind Kind) {
    ProfEvent &E = EvBuf[EvN];
    E.Kind = static_cast<uint8_t>(Kind);
    return E;
  }

  void commit() {
    if (KI_UNLIKELY(++EvN == ProfEventBatchSize))
      flush();
  }

  void emitOp(Opcode Op, uint32_t Dst, uint32_t A, uint32_t B,
              uint8_t Flags) {
    ProfEvent &E = push(EvKind::Op);
    E.Opc = static_cast<uint8_t>(Op);
    E.Flags = Flags;
    E.A = Dst;
    E.B = A;
    E.C = B;
    commit();
  }

  void emitMem(EvKind Kind, uint32_t Dst, uint32_t AddrReg, uint64_t Addr) {
    ProfEvent &E = push(Kind);
    E.A = Dst;
    E.B = AddrReg;
    E.Addr = Addr;
    commit();
  }

  void emitCondBranch(uint32_t CondReg, uint32_t Merge, uint32_t PushBlock) {
    ProfEvent &E = push(EvKind::CondBranch);
    E.A = CondReg;
    E.B = Merge;
    E.C = PushBlock;
    commit();
  }

  void emitA(EvKind Kind, uint32_t A) {
    ProfEvent &E = push(Kind);
    E.A = A;
    commit();
  }

  void emitAB(EvKind Kind, uint32_t A, uint32_t B) {
    ProfEvent &E = push(Kind);
    E.A = A;
    E.B = B;
    commit();
  }

  void emitPushFrame(uint32_t NumRegs) { emitA(EvKind::PushFrame, NumRegs); }
  void emitPopFrame() { commitKind(EvKind::PopFrame); }

  void commitKind(EvKind Kind) {
    push(Kind);
    commit();
  }

  void emitRelease(uint64_t Addr, uint64_t Words) {
    ProfEvent &E = push(EvKind::ReleaseRange);
    E.Addr = Addr;
    E.B = static_cast<uint32_t>(Words);
    E.C = static_cast<uint32_t>(Words >> 32);
    commit();
  }

  // --- The dispatch loop --------------------------------------------------

  /// Executes \p TF's body. The caller has guaranteed register-arena
  /// capacity for this frame, emitted PushFrame/CopyParam events, and will
  /// emit PopFrame; \p CallerDst is where the runtime should copy the
  /// return value's times (NoValue for none).
  template <bool Profiled>
  uint64_t callFunction(const TapeFunction &TF, const uint64_t *CallerRegs,
                        const uint32_t *ArgIds, uint32_t NumArgs,
                        ValueId CallerDst);
};

template <bool Profiled>
uint64_t TapeEngine::callFunction(const TapeFunction &TF,
                                  const uint64_t *CallerRegs,
                                  const uint32_t *ArgIds, uint32_t NumArgs,
                                  ValueId CallerDst) {
  if (KI_UNLIKELY(++CallDepth > Cfg.MaxCallDepth)) {
    fail(ErrorCode::ResourceExhausted,
         formatString("call depth exceeded in @%s", TF.Src->Name.c_str()));
    --CallDepth;
    return 0;
  }
  const size_t MyBase = RegTop;
  RegTop += TF.NumValues;
  uint64_t *Regs = RegArena.data() + MyBase;
  std::fill(Regs, Regs + TF.NumValues, 0);
  for (uint32_t K = 0; K < NumArgs; ++K)
    Regs[K] = CallerRegs[ArgIds[K]];

  // Bump-allocate and zero this frame's array storage.
  const uint64_t FrameBase = SP;
  SP += TF.FrameWords;
  if (KI_UNLIKELY(SP > Heap.size())) {
    fail(ErrorCode::ResourceExhausted,
         formatString("stack overflow in @%s", TF.Src->Name.c_str()));
    SP = FrameBase;
    RegTop = MyBase;
    --CallDepth;
    return 0;
  }
  std::fill(Heap.data() + FrameBase, Heap.data() + SP, 0);

  uint64_t *const Mem = Heap.data();
  const uint64_t HeapSize = Heap.size();
  const TapeInst *const Code = TF.Code.data();
  const TapeInst *I;
  size_t PC = 0;
  uint64_t RetValue = 0;

#if KREMLIN_THREADED_DISPATCH
  // Indexed by TapeInst::Op == the IR opcode value, then the fused forms.
  static const void *const JT[TapeNumOps] = {
      &&L_ConstInt,    &&L_ConstFloat, &&L_Add,         &&L_Sub,
      &&L_Mul,         &&L_Div,        &&L_Rem,         &&L_FAdd,
      &&L_FSub,        &&L_FMul,       &&L_FDiv,        &&L_CmpEQ,
      &&L_CmpNE,       &&L_CmpLT,      &&L_CmpLE,       &&L_CmpGT,
      &&L_CmpGE,       &&L_FCmpEQ,     &&L_FCmpNE,      &&L_FCmpLT,
      &&L_FCmpLE,      &&L_FCmpGT,     &&L_FCmpGE,      &&L_And,
      &&L_Or,          &&L_Not,        &&L_Neg,         &&L_FNeg,
      &&L_IntToFloat,  &&L_FloatToInt, &&L_Move,        &&L_GlobalAddr,
      &&L_FrameAddr,   &&L_PtrAdd,     &&L_Load,        &&L_Store,
      &&L_Call,        &&L_Ret,        &&L_Br,          &&L_CondBr,
      &&L_RegionEnter, &&L_RegionExit, &&L_TapeCmpBr,   &&L_TapeLoadOpStore,
      &&L_TapeHalt,
  };
#define OP(name) L_##name:
#define DISPATCH()                                                            \
  do {                                                                        \
    I = Code + PC;                                                            \
    if (KI_UNLIKELY(++Steps > Cfg.MaxSteps))                                  \
      goto L_Budget;                                                          \
    goto *JT[I->Op];                                                          \
  } while (0)
#else
  // Mirror of the IR opcode values plus the fused forms, so the same OP()
  // bodies serve as switch cases.
  enum TC : uint8_t {
    TC_ConstInt = static_cast<uint8_t>(Opcode::ConstInt),
    TC_ConstFloat = static_cast<uint8_t>(Opcode::ConstFloat),
    TC_Add = static_cast<uint8_t>(Opcode::Add),
    TC_Sub = static_cast<uint8_t>(Opcode::Sub),
    TC_Mul = static_cast<uint8_t>(Opcode::Mul),
    TC_Div = static_cast<uint8_t>(Opcode::Div),
    TC_Rem = static_cast<uint8_t>(Opcode::Rem),
    TC_FAdd = static_cast<uint8_t>(Opcode::FAdd),
    TC_FSub = static_cast<uint8_t>(Opcode::FSub),
    TC_FMul = static_cast<uint8_t>(Opcode::FMul),
    TC_FDiv = static_cast<uint8_t>(Opcode::FDiv),
    TC_CmpEQ = static_cast<uint8_t>(Opcode::CmpEQ),
    TC_CmpNE = static_cast<uint8_t>(Opcode::CmpNE),
    TC_CmpLT = static_cast<uint8_t>(Opcode::CmpLT),
    TC_CmpLE = static_cast<uint8_t>(Opcode::CmpLE),
    TC_CmpGT = static_cast<uint8_t>(Opcode::CmpGT),
    TC_CmpGE = static_cast<uint8_t>(Opcode::CmpGE),
    TC_FCmpEQ = static_cast<uint8_t>(Opcode::FCmpEQ),
    TC_FCmpNE = static_cast<uint8_t>(Opcode::FCmpNE),
    TC_FCmpLT = static_cast<uint8_t>(Opcode::FCmpLT),
    TC_FCmpLE = static_cast<uint8_t>(Opcode::FCmpLE),
    TC_FCmpGT = static_cast<uint8_t>(Opcode::FCmpGT),
    TC_FCmpGE = static_cast<uint8_t>(Opcode::FCmpGE),
    TC_And = static_cast<uint8_t>(Opcode::And),
    TC_Or = static_cast<uint8_t>(Opcode::Or),
    TC_Not = static_cast<uint8_t>(Opcode::Not),
    TC_Neg = static_cast<uint8_t>(Opcode::Neg),
    TC_FNeg = static_cast<uint8_t>(Opcode::FNeg),
    TC_IntToFloat = static_cast<uint8_t>(Opcode::IntToFloat),
    TC_FloatToInt = static_cast<uint8_t>(Opcode::FloatToInt),
    TC_Move = static_cast<uint8_t>(Opcode::Move),
    TC_GlobalAddr = static_cast<uint8_t>(Opcode::GlobalAddr),
    TC_FrameAddr = static_cast<uint8_t>(Opcode::FrameAddr),
    TC_PtrAdd = static_cast<uint8_t>(Opcode::PtrAdd),
    TC_Load = static_cast<uint8_t>(Opcode::Load),
    TC_Store = static_cast<uint8_t>(Opcode::Store),
    TC_Call = static_cast<uint8_t>(Opcode::Call),
    TC_Ret = static_cast<uint8_t>(Opcode::Ret),
    TC_Br = static_cast<uint8_t>(Opcode::Br),
    TC_CondBr = static_cast<uint8_t>(Opcode::CondBr),
    TC_RegionEnter = static_cast<uint8_t>(Opcode::RegionEnter),
    TC_RegionExit = static_cast<uint8_t>(Opcode::RegionExit),
    TC_TapeCmpBr = TapeCmpBr,
    TC_TapeLoadOpStore = TapeLoadOpStore,
    TC_TapeHalt = TapeHalt,
  };
#define OP(name) case TC_##name:
#define DISPATCH()                                                            \
  do {                                                                        \
    I = Code + PC;                                                            \
    if (KI_UNLIKELY(++Steps > Cfg.MaxSteps))                                  \
      goto L_Budget;                                                          \
    goto L_Switch;                                                            \
  } while (0)
#endif

  DISPATCH();

#if !KREMLIN_THREADED_DISPATCH
L_Switch:
  switch (I->Op) {
  default:
    kremlin_unreachable("bad tape opcode");
#endif

  OP(ConstInt)
  OP(ConstFloat) {
    Regs[I->Dst] = I->Imm;
    if (Profiled) {
      if (I->Flags & NoEmitFlag)
        ++FreeOps;
      else
        emitOp(static_cast<Opcode>(I->Op), I->Dst, NoValue, NoValue,
               I->Flags);
    }
    ++PC;
    DISPATCH();
  }

  OP(Move) {
    Regs[I->Dst] = Regs[I->A];
    if (Profiled)
      emitOp(Opcode::Move, I->Dst, I->A, NoValue, I->Flags);
    ++PC;
    DISPATCH();
  }

  OP(GlobalAddr) {
    Regs[I->Dst] = I->Imm;
    if (Profiled) {
      if (I->Flags & NoEmitFlag)
        ++FreeOps;
      else
        emitOp(Opcode::GlobalAddr, I->Dst, NoValue, NoValue, I->Flags);
    }
    ++PC;
    DISPATCH();
  }

  OP(FrameAddr) {
    Regs[I->Dst] = FrameBase + I->Imm;
    if (Profiled) {
      if (I->Flags & NoEmitFlag)
        ++FreeOps;
      else
        emitOp(Opcode::FrameAddr, I->Dst, NoValue, NoValue, I->Flags);
    }
    ++PC;
    DISPATCH();
  }

#define BINOP(name, expr)                                                     \
  OP(name) {                                                                  \
    uint64_t Va = Regs[I->A];                                                 \
    uint64_t Vb = Regs[I->B];                                                 \
    (void)Va;                                                                 \
    (void)Vb;                                                                 \
    Regs[I->Dst] = (expr);                                                    \
    if (Profiled)                                                             \
      emitOp(Opcode::name, I->Dst, I->A, I->B, I->Flags);                     \
    ++PC;                                                                     \
    DISPATCH();                                                               \
  }

  BINOP(PtrAdd, Va + Vb)
  BINOP(Add, Va + Vb)
  BINOP(Sub, Va - Vb)
  BINOP(Mul, Va *Vb)
  BINOP(Div, evalBinary(static_cast<uint8_t>(Opcode::Div), Va, Vb))
  BINOP(Rem, evalBinary(static_cast<uint8_t>(Opcode::Rem), Va, Vb))
  BINOP(FAdd, fromF(toF(Va) + toF(Vb)))
  BINOP(FSub, fromF(toF(Va) - toF(Vb)))
  BINOP(FMul, fromF(toF(Va) * toF(Vb)))
  BINOP(FDiv, fromF(toF(Vb) == 0.0 ? 0.0 : toF(Va) / toF(Vb)))
  BINOP(CmpEQ, toI(Va) == toI(Vb))
  BINOP(CmpNE, toI(Va) != toI(Vb))
  BINOP(CmpLT, toI(Va) < toI(Vb))
  BINOP(CmpLE, toI(Va) <= toI(Vb))
  BINOP(CmpGT, toI(Va) > toI(Vb))
  BINOP(CmpGE, toI(Va) >= toI(Vb))
  BINOP(FCmpEQ, toF(Va) == toF(Vb))
  BINOP(FCmpNE, toF(Va) != toF(Vb))
  BINOP(FCmpLT, toF(Va) < toF(Vb))
  BINOP(FCmpLE, toF(Va) <= toF(Vb))
  BINOP(FCmpGT, toF(Va) > toF(Vb))
  BINOP(FCmpGE, toF(Va) >= toF(Vb))
  BINOP(And, (Va != 0) && (Vb != 0))
  BINOP(Or, (Va != 0) || (Vb != 0))
#undef BINOP

#define UNOP(name, expr)                                                      \
  OP(name) {                                                                  \
    uint64_t Va = Regs[I->A];                                                 \
    Regs[I->Dst] = (expr);                                                    \
    if (Profiled)                                                             \
      emitOp(Opcode::name, I->Dst, I->A, NoValue, I->Flags);                  \
    ++PC;                                                                     \
    DISPATCH();                                                               \
  }

  UNOP(Not, Va == 0)
  UNOP(Neg, fromI(-toI(Va)))
  UNOP(FNeg, fromF(-toF(Va)))
  UNOP(IntToFloat, fromF(static_cast<double>(toI(Va))))
  UNOP(FloatToInt, fromI(static_cast<int64_t>(toF(Va))))
#undef UNOP

  OP(Load) {
    uint64_t Addr = Regs[I->A];
    if (KI_UNLIKELY(Addr >= HeapSize)) {
      fail(formatString("@%s:%u: load out of bounds (addr %llu)",
                        TF.Src->Name.c_str(), I->X,
                        static_cast<unsigned long long>(Addr)));
      goto L_Done;
    }
    Regs[I->Dst] = Mem[Addr];
    if (Profiled)
      emitMem(EvKind::Load, I->Dst, I->A, Addr);
    ++PC;
    DISPATCH();
  }

  OP(Store) {
    uint64_t Addr = Regs[I->A];
    if (KI_UNLIKELY(Addr >= HeapSize)) {
      fail(formatString("@%s:%u: store out of bounds (addr %llu)",
                        TF.Src->Name.c_str(), I->X,
                        static_cast<unsigned long long>(Addr)));
      goto L_Done;
    }
    Mem[Addr] = Regs[I->B];
    if (Profiled)
      emitMem(EvKind::Store, I->B, I->A, Addr);
    ++PC;
    DISPATCH();
  }

  OP(RegionEnter) {
    if (Profiled)
      emitA(EvKind::RegionEnter, static_cast<uint32_t>(I->Imm));
    ++PC;
    DISPATCH();
  }

  OP(RegionExit) {
    if (Profiled)
      emitA(EvKind::RegionExit, static_cast<uint32_t>(I->Imm));
    ++PC;
    DISPATCH();
  }

  OP(Call) {
    if (Profiled && KI_UNLIKELY(Bail))
      goto L_Bail;
    const TapeFunction &Callee = ModTape.Funcs[I->Imm];
    ensureRegCapacity(RegTop + Callee.NumValues);
    Regs = RegArena.data() + MyBase; // The arena may have moved.
    const uint32_t *Args = TF.ArgPool.data() + I->X;
    if (Profiled) {
      emitPushFrame(Callee.NumValues);
      for (uint32_t K = 0; K < I->Y; ++K)
        emitAB(EvKind::CopyParam, K, Args[K]);
    }
    uint64_t Ret = callFunction<Profiled>(Callee, Regs, Args, I->Y, I->Dst);
    if (Profiled)
      emitPopFrame();
    Regs = RegArena.data() + MyBase; // Deep calls may have grown the arena.
    if (I->Dst != NoValue) {
      Regs[I->Dst] = Ret;
      if (Profiled) {
        // The return value's times were copied into Dst by the callee's
        // Ret; fold in control deps and the call latency.
        emitOp(Opcode::Call, I->Dst, I->Dst, NoValue, 0);
      }
    } else if (Profiled) {
      emitOp(Opcode::Call, NoValue, NoValue, NoValue, 0);
    }
    if (KI_UNLIKELY(!Error.empty()))
      goto L_Done;
    ++PC;
    DISPATCH();
  }

  OP(Ret) {
    if (I->A != NoValue)
      RetValue = Regs[I->A];
    if (Profiled) {
      emitOp(Opcode::Ret, NoValue, I->A, NoValue, 0);
      if (I->A != NoValue && CallerDst != NoValue)
        emitAB(EvKind::CopyReturn, CallerDst, I->A);
    }
    goto L_Done;
  }

  OP(Br) {
    if (Profiled) {
      if (KI_UNLIKELY(Bail))
        goto L_Bail;
      emitOp(Opcode::Br, NoValue, NoValue, NoValue, 0);
      emitA(EvKind::BlockEntry, I->Y);
    }
    PC = I->X;
    DISPATCH();
  }

  OP(CondBr) {
    if (Profiled && KI_UNLIKELY(Bail))
      goto L_Bail;
    bool Taken = Regs[I->A] != 0;
    if (Profiled) {
      const CondBrInfo &CB = TF.Branches[I->Imm];
      emitCondBranch(I->A, CB.Merge, CB.PushBlock);
      emitA(EvKind::BlockEntry, Taken ? CB.TrueBlock : CB.FalseBlock);
    }
    PC = Taken ? I->X : I->Y;
    DISPATCH();
  }

  OP(TapeCmpBr) {
    if (Profiled && KI_UNLIKELY(Bail))
      goto L_Bail;
    if (KI_UNLIKELY(++Steps > Cfg.MaxSteps)) // Second fused step.
      goto L_Budget;
    uint64_t C = evalBinary(I->SubOp, Regs[I->A], Regs[I->B]);
    Regs[I->Dst] = C;
    if (Profiled)
      emitOp(static_cast<Opcode>(I->SubOp), I->Dst, I->A, I->B, I->Flags);
    bool Taken = C != 0;
    if (Profiled) {
      const CondBrInfo &CB = TF.Branches[I->Imm];
      emitCondBranch(I->Dst, CB.Merge, CB.PushBlock);
      emitA(EvKind::BlockEntry, Taken ? CB.TrueBlock : CB.FalseBlock);
    }
    PC = Taken ? I->X : I->Y;
    DISPATCH();
  }

  OP(TapeLoadOpStore) {
    Steps += 2; // Second and third fused steps.
    if (KI_UNLIKELY(Steps > Cfg.MaxSteps))
      goto L_Budget;
    uint64_t Addr = Regs[I->A];
    if (KI_UNLIKELY(Addr >= HeapSize)) {
      fail(formatString("@%s:%u: load out of bounds (addr %llu)",
                        TF.Src->Name.c_str(), I->Y,
                        static_cast<unsigned long long>(Addr)));
      goto L_Done;
    }
    Regs[I->Dst] = Mem[Addr];
    if (Profiled)
      emitMem(EvKind::Load, I->Dst, I->A, Addr);
    uint64_t R2 = evalBinary(I->SubOp, Regs[I->Dst], Regs[I->B]);
    Regs[I->X] = R2;
    if (Profiled)
      emitOp(static_cast<Opcode>(I->SubOp), I->X, I->Dst, I->B, I->Flags);
    // The address register is untouched by the fused pair, so the store
    // address provably equals the (bounds-checked) load address.
    Mem[Addr] = R2;
    if (Profiled)
      emitMem(EvKind::Store, I->X, I->A, Addr);
    ++PC;
    DISPATCH();
  }

  OP(TapeHalt) {
    fail(ErrorCode::Internal,
         formatString("@%s: block without terminator reached",
                      TF.Src->Name.c_str()));
    goto L_Done;
  }

#if !KREMLIN_THREADED_DISPATCH
  }
#endif
#undef OP
#undef DISPATCH

L_Budget:
  fail(ErrorCode::ResourceExhausted, "dynamic instruction budget exceeded");
  goto L_Done;

L_Bail:
  // A post-flush guardrail poll failed (shadow byte budget, region depth
  // cap, injected fault): surface the runtime's status, like the reference
  // engine's per-block poll.
  fail(RT->status());
  goto L_Done;

L_Done:
  // Release this frame's array storage (and its shadow pages).
  if (Profiled && SP > FrameBase)
    emitRelease(FrameBase, SP - FrameBase);
  SP = FrameBase;
  RegTop = MyBase;
  --CallDepth;
  return RetValue;
}

} // namespace

Interpreter::Interpreter(const Module &M, InterpConfig Cfg)
    : M(M), Cfg(Cfg) {
  GlobalBase.resize(M.Globals.size());
  uint64_t Addr = 0;
  for (size_t G = 0; G < M.Globals.size(); ++G) {
    GlobalBase[G] = Addr;
    Addr += M.Globals[G].SizeWords;
  }
  GlobalWords = Addr;
}

Interpreter::~Interpreter() = default;

ExecResult Interpreter::run(KremlinRuntime *RT) {
  ProgramMemory Heap(GlobalWords, Cfg.StackWords);
  if (!Heap.reserved()) {
    ExecResult Result;
    Result.Error = formatString(
        "cannot reserve program memory (%llu global + %llu stack words)",
        static_cast<unsigned long long>(GlobalWords),
        static_cast<unsigned long long>(Cfg.StackWords));
    Result.Err = Status::error(ErrorCode::ResourceExhausted, Result.Error);
    return Result;
  }
  if (Cfg.UseTape) {
    if (!Tape)
      Tape = std::make_unique<ModuleTape>(M, GlobalBase);
    TapeEngine E(M, *Tape, Cfg, GlobalWords, Heap, RT);
    return E.run();
  }
  Engine E(M, Cfg, GlobalBase, GlobalWords, Heap, RT);
  return E.run();
}

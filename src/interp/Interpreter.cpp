//===- interp/Interpreter.cpp ---------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Tape.h"
#include "rt/ProfEvent.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <pthread.h>
#include <thread>

// Threaded dispatch uses computed goto, a GCC/Clang extension; those are
// the only compilers the build supports.
#define KI_UNLIKELY(x) (__builtin_expect(!!(x), 0))

using namespace kremlin;

namespace {

/// Producer-thread stack per level of InterpConfig::MaxCallDepth: a
/// profiled MiniC call nests one callFunction<true> frame, 224 bytes in a
/// GCC 12 RelWithDebInfo build and 3,088 in its ASan+UBSan build. Stack a
/// run never reaches costs address space, not memory.
constexpr size_t ProducerStackPerCall = 8 << 10;
/// Producer-thread stack below the first MiniC call.
constexpr size_t ProducerStackBase = 1 << 20;

/// Single-producer/single-consumer ring of ProfEvent batches: the two-stage
/// pipeline of a profiled run. The interpreter (producer, helper thread)
/// fills one batch while the HCPA runtime (consumer, calling thread)
/// drains the published ones. Only this object is shared between the two
/// threads.
///
/// Waiting never costs a syscall per batch. A side that finds nothing to
/// do polls a bounded number of times, yielding between polls, and then
/// sleeps on a condition variable. The other side takes the mutex to wake
/// it only when its "asleep" flag is up. The consumer is the slower stage,
/// so the producer usually finds the ring full: it polls briefly, then
/// sleeps until the consumer has drained the ring to half, so one wake-up
/// covers ResumeAt batches. The consumer polls longer before it sleeps,
/// because it is the critical path. All index and flag accesses are
/// sequentially consistent: that is what rules out a lost wake-up (a side
/// raises its flag and then re-reads the index; the other side stores the
/// index and then reads the flag), together with the sleeper holding the
/// mutex from raising its flag until the wait releases it, so a waker that
/// saw the flag cannot notify too early. On x86 this costs one locked
/// store per batch on each side.
class BatchRing {
public:
  /// Buffers in the ring: 16 x 24 KiB = 384 KiB. The producer runs
  /// Depth - 1 published batches ahead of the consumer at most.
  static constexpr uint64_t Depth = 16;
  /// A producer asleep on a full ring resumes once at most this many
  /// published batches are left.
  static constexpr uint64_t ResumeAt = Depth / 2;
  /// Polls, each after a yield, before a waiting side goes to sleep. On
  /// the 4-CPU suite-profile run, 64 producer polls spent 2.0-2.7 s of
  /// system time per 10 s in sched_yield; 8 spent 0.25-0.3 s and were as
  /// fast.
  static constexpr unsigned ProducerPolls = 8;
  static constexpr unsigned ConsumerPolls = 64;

  struct Batch {
    size_t N = 0;
    ProfEvent Ev[ProfEventBatchSize];
  };

  BatchRing() : Slots(std::make_unique<Batch[]>(Depth)) {}

  // --- Producer side ------------------------------------------------------

  /// The event buffer the producer fills. The consumer never reads it
  /// until publish() or close() hands it over.
  ProfEvent *events() { return filling().Ev; }

  /// Hands the first \p N events of events() to the consumer and waits
  /// until the next buffer is free (at once if the consumer abandoned the
  /// run).
  void publish(size_t N) {
    uint64_t T = seal(N);
    wake(ConsumerAsleep, ConsumerWake);
    if (T - Head.load() >= Depth)
      awaitSpace(T);
  }

  /// Like publish(), for the stream's last batch; never waits.
  void close(size_t N) {
    seal(N);
    Closed.store(true);
    wake(ConsumerAsleep, ConsumerWake);
  }

  /// True once the consumer saw its runtime trip a guardrail, or abandoned
  /// the run. Lags the consumer by at most Depth batches: publish() reads
  /// the consumer's index, which the consumer stores after this flag.
  bool consumerFailed() const { return Failed.load(); }

  // --- Consumer side ------------------------------------------------------

  /// The oldest published batch, waiting for one; nullptr once the stream
  /// is closed and every batch was consumed.
  const Batch *next() {
    const uint64_t H = Head.load(std::memory_order_relaxed);
    auto Ready = [&] { return H < Tail.load() || Closed.load(); };
    if (!Ready()) {
      // Only a missed first poll reads the clock.
      auto Start = std::chrono::steady_clock::now();
      for (unsigned Poll = 0; !Ready(); ++Poll) {
        if (Poll < ConsumerPolls) {
          std::this_thread::yield();
          continue;
        }
        std::unique_lock<std::mutex> Lock(M);
        ConsumerAsleep.store(true);
        ConsumerWake.wait(Lock, Ready);
        ConsumerAsleep.store(false);
      }
      ConsumerWait += std::chrono::steady_clock::now() - Start;
    }
    // close() stores Tail before Closed, so this second look at Tail sees
    // the last batch.
    return H < Tail.load() ? &Slots[H % Depth] : nullptr;
  }

  /// Returns the batch from next() to the producer, with the runtime's
  /// failed() state after consuming it.
  void release(bool RuntimeFailed) {
    if (RuntimeFailed)
      Failed.store(true);
    uint64_t H = Head.load(std::memory_order_relaxed) + 1;
    Head.store(H);
    if (Tail.load() - H <= ResumeAt)
      wake(ProducerAsleep, ProducerWake);
  }

  /// Stops the producer after the consumer threw: it sees consumerFailed()
  /// at its next flush and never waits for space again.
  void abandon() {
    Failed.store(true);
    Abandoned.store(true);
    std::lock_guard<std::mutex> Lock(M);
    ProducerWake.notify_one();
  }

  // --- Stall tallies, read once the producer has been joined -------------

  /// Time the consumer spent in next() waiting for a batch.
  std::chrono::steady_clock::duration consumerWait() const {
    return ConsumerWait;
  }
  /// Times the producer went to sleep on a full ring.
  uint64_t producerSleeps() const { return ProducerSleeps; }

private:
  std::unique_ptr<Batch[]> Slots;
  /// Batches consumed / published since the start of the run; slot
  /// I % Depth holds batch I. Each side writes one of them, so they live
  /// on separate cache lines.
  alignas(64) std::atomic<uint64_t> Head{0};
  alignas(64) std::atomic<uint64_t> Tail{0};
  std::atomic<bool> Closed{false};
  std::atomic<bool> Failed{false};
  std::atomic<bool> Abandoned{false};
  std::atomic<bool> ProducerAsleep{false};
  std::atomic<bool> ConsumerAsleep{false};
  std::mutex M;
  std::condition_variable ProducerWake;
  std::condition_variable ConsumerWake;
  /// Each written by one side only.
  std::chrono::steady_clock::duration ConsumerWait{};
  uint64_t ProducerSleeps = 0;

  Batch &filling() {
    return Slots[Tail.load(std::memory_order_relaxed) % Depth];
  }

  /// Publishes filling(); returns the new Tail.
  uint64_t seal(size_t N) {
    filling().N = N;
    uint64_t T = Tail.load(std::memory_order_relaxed) + 1;
    Tail.store(T);
    return T;
  }

  void awaitSpace(uint64_t T) {
    for (unsigned Poll = 0; Poll < ProducerPolls; ++Poll) {
      std::this_thread::yield();
      if (T - Head.load() < Depth || Abandoned.load())
        return;
    }
    std::unique_lock<std::mutex> Lock(M);
    ++ProducerSleeps;
    ProducerAsleep.store(true);
    ProducerWake.wait(Lock, [&] {
      return T - Head.load() <= ResumeAt || Abandoned.load();
    });
    ProducerAsleep.store(false);
  }

  void wake(const std::atomic<bool> &Asleep, std::condition_variable &CV) {
    if (!Asleep.load())
      return;
    std::lock_guard<std::mutex> Lock(M);
    CV.notify_one();
  }
};

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

/// Two-operand evaluator for Div/Rem and the fused superinstructions. MiniC
/// integer arithmetic is trap-free with wrap-around semantics (suite
/// benchmarks lean on overflowing LCG-style PRNGs), so it computes in
/// uint64_t: two's complement makes the bit patterns identical.
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

/// The engine: threaded dispatch over the pre-decoded tape. A profiled run
/// is a two-stage pipeline. A helper thread executes the program and
/// streams its profiling events into a BatchRing; the calling thread feeds
/// every published batch to KremlinRuntime::consumeBatch. The producer
/// never calls into the runtime: its guardrail poll reads the ring's
/// failed flag after each flush and is acted on at the next branch or
/// call. Plain runs stay on the calling thread.
class TapeEngine {
public:
  TapeEngine(const Module &M, const ModuleTape &ModTape,
             const InterpConfig &Cfg, uint64_t GlobalWords,
             ProgramMemory &Heap)
      : M(M), ModTape(ModTape), Cfg(Cfg), Heap(Heap), SP(GlobalWords) {}
  // A profiled run's helper thread holds this engine's address.
  TapeEngine(const TapeEngine &) = delete;
  TapeEngine &operator=(const TapeEngine &) = delete;

  ExecResult run(KremlinRuntime *RT) {
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
    uint64_t Ret = RT ? runProfiled(*RT, F, TMain)
                      : callFunction<false>(TMain, nullptr, nullptr, 0,
                                            NoValue);
    Result.DynInstructions = Steps;
    if (Ring) {
      Result.ConsumerWaitUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Ring->consumerWait())
              .count());
      Result.ProducerSleeps = Ring->producerSleeps();
    }
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

  /// Producer side of the ProfEvent stream (profiled runs only): the ring
  /// and the batch being filled in it.
  std::unique_ptr<BatchRing> Ring;
  ProfEvent *EvBuf = nullptr;
  size_t EvN = 0;
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
    Ring->publish(EvN);
    EvBuf = Ring->events();
    EvN = 0;
    if (Ring->consumerFailed())
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

  /// The event of tree op \p I (see TreeShape): none for an inner op,
  /// which its root's Tree event accounts for; a Tree event at the root of
  /// a multi-op tree, whose shape is Shapes[\p Shape]; else a plain Op
  /// event.
  void emitTreeOp(const TapeInst *I, const TreeShape *Shapes, uint64_t Shape,
                  Opcode Op, uint32_t Dst, uint32_t A, uint32_t B) {
    if (I->Flags & InnerFlag)
      return;
    if (I->Flags & TreeRootFlag) {
      ProfEvent &E = push(EvKind::Tree);
      E.A = Dst;
      E.Addr = std::bit_cast<uint64_t>(Shapes + Shape);
      commit();
      return;
    }
    emitOp(Op, Dst, A, B, I->Flags);
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

  // --- The pipeline -------------------------------------------------------

  /// Runs main() as the two-stage pipeline described on the class and
  /// returns its value. An exception thrown on either thread reaches the
  /// caller, after the helper thread has been joined.
  uint64_t runProfiled(KremlinRuntime &RT, const Function &F,
                       const TapeFunction &TMain) {
    Ring = std::make_unique<BatchRing>();
    BatchRing &R = *Ring;
    EvBuf = R.events();
    uint64_t Ret = 0;
    std::exception_ptr ProducerErr;
    auto Produce = [&] {
      try {
        emitPushFrame(F.NumValues);
        Ret = callFunction<true>(TMain, nullptr, nullptr, 0, NoValue);
        emitPopFrame();
      } catch (...) {
        ProducerErr = std::current_exception();
      }
      R.close(EvN);
    };
    // The interpreter recurses once per MiniC call, so the producer's
    // stack is sized by the depth limit; std::thread cannot choose one.
    pthread_t Producer{};
    pthread_attr_t Attr{};
    int Rc = pthread_attr_init(&Attr);
    if (Rc == 0) {
      Rc = pthread_attr_setstacksize(
          &Attr, ProducerStackBase +
                     size_t(Cfg.MaxCallDepth) * ProducerStackPerCall);
      if (Rc == 0)
        Rc = pthread_create(
            &Producer, &Attr,
            [](void *Body) -> void * {
              (*static_cast<decltype(Produce) *>(Body))();
              return nullptr;
            },
            &Produce);
      pthread_attr_destroy(&Attr);
    }
    if (Rc != 0) {
      fail(ErrorCode::ResourceExhausted,
           formatString("cannot start the profiling thread: %s",
                        std::strerror(Rc)));
      return 0;
    }
    try {
      while (const BatchRing::Batch *B = R.next()) {
        RT.consumeBatch(B->Ev, B->N);
        R.release(RT.failed());
      }
    } catch (...) {
      R.abandon();
      pthread_join(Producer, nullptr);
      throw;
    }
    pthread_join(Producer, nullptr);
    if (ProducerErr)
      std::rethrow_exception(ProducerErr);
    // The runtime consumed every event, so a trip anywhere in the stream
    // fails the run, including one in the final batch after the producer's
    // last poll. Unwinding after a producer error emits no event that can
    // trip a guardrail, so the trip came first in program order: its status
    // replaces whatever the producer hit before its lagged poll saw it.
    if (RT.failed()) {
      Error.clear();
      fail(RT.status());
    }
    return Ret;
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
  const TreeShape *const Shapes = TF.Shapes.data();
  const TapeInst *I;
  size_t PC = 0;
  uint64_t RetValue = 0;

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

  DISPATCH();

  OP(ConstInt)
  OP(ConstFloat) {
    Regs[I->Dst] = I->Imm;
    if (Profiled && !(I->Flags & NoEmitFlag))
      emitOp(static_cast<Opcode>(I->Op), I->Dst, NoValue, NoValue, I->Flags);
    ++PC;
    DISPATCH();
  }

  OP(Move) {
    Regs[I->Dst] = Regs[I->A];
    if (Profiled)
      emitTreeOp(I, Shapes, I->Imm, Opcode::Move, I->Dst, I->A, NoValue);
    ++PC;
    DISPATCH();
  }

  OP(GlobalAddr) {
    Regs[I->Dst] = I->Imm;
    if (Profiled && !(I->Flags & NoEmitFlag))
      emitOp(Opcode::GlobalAddr, I->Dst, NoValue, NoValue, I->Flags);
    ++PC;
    DISPATCH();
  }

  OP(FrameAddr) {
    Regs[I->Dst] = FrameBase + I->Imm;
    if (Profiled && !(I->Flags & NoEmitFlag))
      emitOp(Opcode::FrameAddr, I->Dst, NoValue, NoValue, I->Flags);
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
      emitTreeOp(I, Shapes, I->Imm, Opcode::name, I->Dst, I->A, I->B);       \
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
      emitTreeOp(I, Shapes, I->Imm, Opcode::name, I->Dst, I->A, NoValue);    \
    ++PC;                                                                     \
    DISPATCH();                                                               \
  }

  UNOP(Not, Va == 0)
  UNOP(Neg, 0 - Va) // Wraps: -INT64_MIN == INT64_MIN.
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
    const uint32_t *Args = TF.Src->CallArgs.data() + I->X;
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
    bool Taken = C != 0;
    if (Profiled) {
      const CondBrInfo &CB = TF.Branches[I->Imm];
      emitTreeOp(I, Shapes, CB.Shape, static_cast<Opcode>(I->SubOp), I->Dst,
                 I->A, I->B);
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
      emitTreeOp(I, Shapes, I->Imm, static_cast<Opcode>(I->SubOp), I->X,
                 I->Dst, I->B);
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

#undef OP
#undef DISPATCH

L_Budget:
  fail(ErrorCode::ResourceExhausted, "dynamic instruction budget exceeded");
  goto L_Done;

L_Bail:
  // A post-flush guardrail poll failed (shadow byte budget, region depth
  // cap, injected fault) or the consumer gave up: stop. runProfiled()
  // replaces this placeholder with the runtime's status after the join.
  fail(ErrorCode::ResourceExhausted, "profiling runtime stopped the run");
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
  if (!Tape)
    Tape = std::make_unique<ModuleTape>(M, GlobalBase);
  TapeEngine E(M, *Tape, Cfg, GlobalWords, Heap);
  return E.run(RT);
}

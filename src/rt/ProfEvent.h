//===- rt/ProfEvent.h - Batched profiling event stream ----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The narrow interface between event-stream generation (the interpreter, or
/// any future frontend replaying a real execution) and HCPA consumption
/// (KremlinRuntime). The producer appends fixed-size ProfEvent records to a
/// buffer and hands full batches to KremlinRuntime::consumeBatch(); events
/// are consumed strictly in order, so a batched stream produces bit-identical
/// profiles to the equivalent sequence of direct hook calls. Most events
/// stand for one instruction; a Tree event stands for a whole expression
/// DAG of register ops (TreeShape), 18.8 of them on average over the paper
/// suite, a Branch for a conditional branch with its compare and the
/// block entry it leads to, a Jump for a `br` and its block entry, and an
/// Update for an induction/reduction update and its copy back.
///
/// Nothing in the stream flows back to the producer: every hook is
/// fire-and-forget. That is what lets the two sides run on different
/// threads. The interpreter produces on a helper thread into a ring of
/// batch buffers, and the thread that called Interpreter::run() consumes
/// them, so the runtime and its RegionSummarySink stay on the caller's
/// thread. A batch carries only its events. The only feedback is one flag:
/// after each batch the consumer records whether KremlinRuntime::failed(),
/// and the producer reads the flag when it hands over its next batch. The
/// producer may therefore run up to a ring of batches past a guardrail
/// trip before it stops, and KremlinRuntime::status() keeps the first trip
/// so the reported cause does not depend on how far it got.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_RT_PROFEVENT_H
#define KREMLIN_RT_PROFEVENT_H

#include <bit>
#include <cstddef>
#include <cstdint>

namespace kremlin {

/// Discriminator for ProfEvent. Each kind runs a fixed sequence of
/// KremlinRuntime hooks; see consumeBatch() for the exact dispatch. A
/// control transfer is one event (Jump or Branch), and so is an
/// induction/reduction update with its copy back (Update).
enum class EvKind : uint8_t {
  Op,           ///< onOp(Opc, A=Dst, B=SrcA, C=SrcB, Flags&EvBreakDep)
  Tree,         ///< onTree(A=RootDst, *(const TreeShape *)Addr)
  Load,         ///< onLoad(A=Dst, B=AddrReg, Addr)
  Store,        ///< onStore(A=ValReg, B=AddrReg, Addr)
  /// A conditional branch at *(const BranchSite *)Addr on register A:
  ///   its compare, per Flags: with EvCmpOp onOp(Opc, A, B, C,
  ///   Flags&EvBreakDep), with EvCmpTree onTree(A, *(const TreeShape *)
  ///   (B | C<<32)), with neither none (a CondBr on a non-compare value);
  ///   then onCondBranch(A, Merge, PushBlock);
  ///   then popControlDepsAtBlock(Flags&EvTaken ? TrueBlock : FalseBlock).
  Branch,
  /// An unconditional branch: onOp(Br), then popControlDepsAtBlock(A=Block).
  Jump,
  /// r = op a, b followed by v = move r, op an induction/reduction update:
  ///   onOp(Opc, A=r, -, B=b, true) (the update ignores a);
  ///   then onOp(Move, C=v, A=r, -, Flags&EvBreakDep) (the move's own mark).
  Update,
  RegionEnter,  ///< enterRegion(A=RegionId)
  RegionExit,   ///< exitRegion(A=RegionId)
  PushFrame,    ///< pushFrame(A=NumRegs)
  PopFrame,     ///< popFrame()
  CopyParam,    ///< copyParamFromCaller(A=DstParam, B=SrcArgInCaller)
  CopyReturn,   ///< copyReturnToCaller(A=DstInCaller, B=SrcInCallee)
  ReleaseRange, ///< ShadowMemory::releaseRange(Addr, Words=B | C<<32)
};

inline constexpr size_t NumEvKinds =
    static_cast<size_t>(EvKind::ReleaseRange) + 1;

/// Each kind's name, indexed by EvKind: the suffix of its telemetry counter
/// (rt.prof_events.<name>) and its field in tests/golden/execute_work.txt.
inline constexpr const char *EvKindNames[NumEvKinds] = {
    "op",          "tree",        "load",       "store",
    "branch",      "jump",        "update",     "region_enter",
    "region_exit", "push_frame",  "pop_frame",  "copy_param",
    "copy_return", "release_range"};

/// ProfEvent::Flags bits (field use per kind is on EvKind).
enum : uint8_t {
  EvBreakDep = 1, ///< Op, Branch's compare Op, Update's move: BreakDepA.
  EvTaken = 2,    ///< Branch: control goes to TrueBlock.
  EvCmpOp = 4,    ///< Branch: its compare is one Op.
  EvCmpTree = 8,  ///< Branch: its compare roots an expression DAG.
};

/// The static facts of one conditional branch. They live in the decoded
/// tape, which outlives the run, so a Branch event carries a pointer.
struct BranchSite {
  uint32_t Merge = UINT32_MAX;     ///< Immediate post-dominator block.
  uint32_t PushBlock = UINT32_MAX; ///< Block containing the branch.
  uint32_t TrueBlock = 0;          ///< Taken successor (block id).
  uint32_t FalseBlock = 0;         ///< Fall-through successor (block id).
};

/// One leaf of an expression DAG: a register the DAG reads from its shadow
/// row rather than from one of its own ops, and the longest latency from
/// one of its readers to the root, inclusive of both.
struct TreeLeaf {
  uint32_t Reg = 0;
  uint32_t Dist = 0;
};

/// The static shape of one expression DAG: pure register ops of one block
/// folded into a root; every value but the root's is read only inside the
/// DAG and dies in the block (interp/Tape.h has the rule). The producer emits
/// one EvKind::Tree event at the root instead of one Op event per op, and
/// the runtime computes the root's time per active level as
///   T = max(Cd + CdDist, max over valid leaves (T_leaf + Dist)),
/// which is exact in max-plus arithmetic (DESIGN §5): an op shared by two
/// paths reaches the root along the longer. Shapes live in the decoded
/// tape, which outlives the run, so an event carries a pointer.
struct TreeShape {
  const TreeLeaf *Leaves = nullptr; ///< NumLeaves entries, one per register.
  uint32_t NumLeaves = 0;
  uint32_t CdDist = 0; ///< Longest op-to-root latency, inclusive.
  uint32_t Ops = 0;    ///< Instructions in the DAG, root included.
  uint32_t Work = 0;   ///< Their summed latency, each op counted once.
};

/// One profiling event. 24 bytes, trivially copyable; field use per kind is
/// documented on EvKind. Opc carries an IR opcode (Op, Branch, Update).
struct ProfEvent {
  uint8_t Kind = 0;
  uint8_t Opc = 0;
  uint8_t Flags = 0;
  uint8_t Pad = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  uint64_t Addr = 0;

  uint64_t words() const { return uint64_t(B) | (uint64_t(C) << 32); }
  const TreeShape &shape() const {
    return *std::bit_cast<const TreeShape *>(Addr);
  }
  /// A Branch's site, and the shape of its EvCmpTree compare.
  const BranchSite &site() const {
    return *std::bit_cast<const BranchSite *>(Addr);
  }
  const TreeShape &compareShape() const {
    return *std::bit_cast<const TreeShape *>(words());
  }
};

static_assert(sizeof(ProfEvent) == 24, "keep the event record dense");

/// Events per batch (24 KiB). Big enough that handing a batch to the other
/// thread (a few atomic operations, and a wake-up only when that side
/// sleeps) is noise per event. Small enough that a batch the producer just
/// wrote is still in the shared cache when the consumer reads it on another
/// core, and that a guardrail poll lagging a ring of batches behind stops
/// the producer within tens of thousands of events.
inline constexpr size_t ProfEventBatchSize = 1024;

} // namespace kremlin

#endif // KREMLIN_RT_PROFEVENT_H

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
/// suite.
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

/// Discriminator for ProfEvent. Each kind maps 1:1 onto one KremlinRuntime
/// hook; see consumeBatch() for the exact dispatch.
enum class EvKind : uint8_t {
  Op,           ///< onOp(Op, A=Dst, B=SrcA, C=SrcB, Flags&1=BreakDepA)
  Tree,         ///< onTree(A=RootDst, *(const TreeShape *)Addr)
  Load,         ///< onLoad(A=Dst, B=AddrReg, Addr)
  Store,        ///< onStore(A=ValReg, B=AddrReg, Addr)
  CondBranch,   ///< onCondBranch(A=CondReg, B=MergeBlock, C=PushBlock)
  BlockEntry,   ///< popControlDepsAtBlock(A=Block)
  RegionEnter,  ///< enterRegion(A=RegionId)
  RegionExit,   ///< exitRegion(A=RegionId)
  PushFrame,    ///< pushFrame(A=NumRegs)
  PopFrame,     ///< popFrame()
  CopyParam,    ///< copyParamFromCaller(A=DstParam, B=SrcArgInCaller)
  CopyReturn,   ///< copyReturnToCaller(A=DstInCaller, B=SrcInCallee)
  ReleaseRange, ///< ShadowMemory::releaseRange(Addr, Words=B | C<<32)
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
/// documented on EvKind. Opc carries the IR opcode for EvKind::Op.
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

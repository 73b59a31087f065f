//===- interp/Tape.h - Pre-decoded flat execution tape ----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-decoded execution format the fast interpreter dispatches over.
/// Lowering the IR once per module buys the hot loop three things:
///
///  * dense 32-byte instructions in one flat array per function (the IR's
///    Instruction is 100+ bytes with an embedded vector, scattered across
///    per-block vectors);
///  * operands resolved at decode time — global addresses become absolute
///    immediates, frame-array bases become frame offsets, branch targets
///    become tape indices, call arguments live in a shared pool;
///  * superinstruction fusion for the two idioms that dominate the paper
///    suite: compare-branch (loop exits and if tests) and load-op-store
///    (read-modify-write of an array cell). Fused instructions execute and
///    emit profiling events exactly as their components would — only the
///    dispatches are saved — so profiles stay bit-identical;
///  * expression trees: each maximal tree of pure register ops whose inner
///    results are single-use temporaries gets a TreeShape, and the profiled
///    run emits one EvKind::Tree event at its root instead of one Op event
///    per op (the runtime's onTree computes the same root time).
///
/// Tape opcodes reuse the IR Opcode numbering and append the fused forms,
/// so a computed-goto jump table indexes directly on TapeInst::Op.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_INTERP_TAPE_H
#define KREMLIN_INTERP_TAPE_H

#include "ir/Module.h"
#include "rt/ProfEvent.h"

#include <cstdint>
#include <vector>

namespace kremlin {

/// Tape opcode space: IR opcodes by value, then the superinstructions.
enum : uint8_t {
  TapeCmpBr = static_cast<uint8_t>(Opcode::RegionExit) + 1,
  TapeLoadOpStore,
  TapeHalt, ///< Unterminated block (unverified IR): structured error.
  TapeNumOps
};

/// TapeInst::Flags bits.
enum : uint8_t {
  BreakDepFlag = 1, ///< Induction/reduction update: ignore the A dep.
  NoEmitFlag = 2,   ///< Profiling event elided (see class comment).
  InnerFlag = 4,    ///< Inner op of a tree: its root's Tree event counts it.
  TreeRootFlag = 8, ///< Root of a multi-op tree: emits a Tree event.
};

/// Side table for conditional branches: everything the profiler needs that
/// does not fit the dense TapeInst.
struct CondBrInfo {
  uint32_t Merge = UINT32_MAX;     ///< Immediate post-dominator block.
  uint32_t PushBlock = UINT32_MAX; ///< Block containing the branch.
  uint32_t TrueBlock = 0;          ///< Taken successor (block id).
  uint32_t FalseBlock = 0;         ///< Fall-through successor (block id).
  /// TapeCmpBr whose compare is a tree root: its TapeFunction::Shapes index.
  uint32_t Shape = UINT32_MAX;
};

/// One pre-decoded instruction. Field use by opcode:
///   ConstInt/ConstFloat: Dst, Imm (value bits)
///   GlobalAddr: Dst, Imm (absolute word address)
///   FrameAddr: Dst, Imm (offset from the frame base)
///
/// Flags bit 1 (NoEmitFlag) marks a const-class op whose profiling event is
/// elided: when its register has exactly one static writer, the row only
/// ever holds "available at time 0", which is indistinguishable from the
/// zero-initialized frame row (a tag mismatch reads as time 0), so the
/// runtime's row write is a no-op and the op emits nothing.
///   unary/binary/Move/PtrAdd: Dst, A, B; Flags bit 0 = BreakDepA;
///     Imm (shape index) with TreeRootFlag
///   Load: Dst, A (addr reg), X (line)     Store: A (addr), B (val), X (line)
///   RegionEnter/Exit: Imm (region id)
///   Call: Dst (or NoValue), Imm (callee), X (arg-pool offset), Y (#args)
///   Ret: A (value or NoValue)
///   Br: X (target tape index), Y (target block id)
///   CondBr: A (cond), X/Y (true/false tape index), Imm (CondBrInfo index)
///   TapeCmpBr: SubOp (compare opcode), Dst, A, B, Flags; X/Y/Imm as CondBr
///     (the shape index of a tree-root compare is CondBrInfo::Shape)
///   TapeLoadOpStore: SubOp (binop opcode), A (addr reg), Dst (load result),
///     B (other operand), X (op result reg), Flags; Y (load line),
///     Imm (shape index) with TreeRootFlag
///
/// Tree flags (see TreeShape) go on the pure register ops: binary, unary,
/// Move, PtrAdd, compares and casts, never a const-class op or a BreakDepA
/// update. A tree op whose result register has one static writer and one
/// static read, by a later tree op of its block, is an inner op
/// (InnerFlag): it executes but emits nothing, unless a write to one of its
/// tree's leaves or a Call or region marker comes before that reader. The
/// op that reads it roots a tree of two or more ops (TreeRootFlag) and
/// emits one Tree event; an op with no inner operand keeps its Op event.
struct TapeInst {
  uint8_t Op = 0;
  uint8_t SubOp = 0;
  uint8_t Flags = 0;
  uint8_t Pad = 0;
  uint32_t Dst = NoValue;
  uint32_t A = NoValue;
  uint32_t B = NoValue;
  uint32_t X = 0;
  uint32_t Y = 0;
  uint64_t Imm = 0;
};

static_assert(sizeof(TapeInst) == 32, "keep tape instructions dense");

/// One function lowered to tape form.
struct TapeFunction {
  std::vector<TapeInst> Code;
  std::vector<CondBrInfo> Branches;
  std::vector<uint32_t> ArgPool; ///< Call argument registers, by (X, Y).
  const Function *Src = nullptr; ///< For names/lines in error messages.
  uint32_t NumValues = 0;
  uint64_t FrameWords = 0;
  /// Expression-tree shapes; each one's leaves are the next NumLeaves
  /// entries of Leaves, in shape order.
  std::vector<TreeShape> Shapes;
  std::vector<TreeLeaf> Leaves;
  /// Fusion and tree tallies (decode-time statistics, asserted on by tests).
  unsigned FusedCmpBr = 0;
  unsigned FusedLoadOpStore = 0;
  unsigned InnerOps = 0; ///< Tree ops folded into a root (InnerFlag).
};

/// The whole module in tape form. Built once per Interpreter; immutable
/// afterwards, so Tree events may point into it for the whole run.
struct ModuleTape {
  /// \p GlobalBase gives each global's absolute word address, resolved into
  /// GlobalAddr immediates at decode time.
  ModuleTape(const Module &M, const std::vector<uint64_t> &GlobalBase);

  std::vector<TapeFunction> Funcs;
};

} // namespace kremlin

#endif // KREMLIN_INTERP_TAPE_H

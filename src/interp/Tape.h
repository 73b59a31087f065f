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
///    Instruction is 56 bytes, scattered across per-block vectors);
///  * operands resolved at decode time — global addresses become absolute
///    immediates, frame-array bases become frame offsets, branch targets
///    become tape indices, a call's arguments become an offset and a
///    count in its function's argument pool;
///  * superinstruction fusion for the three idioms that dominate the paper
///    suite: compare-branch (loop exits and if tests), load-op-store
///    (read-modify-write of an array cell) and update (an induction or
///    reduction update and its copy back). Fused instructions execute and
///    drive the runtime's hooks exactly as their components would, so
///    profiles stay bit-identical; a branch, a jump or an update is one
///    event (EvKind::Branch, Jump, Update);
///  * expression DAGs: the pure register ops of a block whose values die
///    inside it fold into the root their readers share, which gets a
///    TreeShape, and the profiled run emits one EvKind::Tree event at the
///    root instead of one Op event per op (the runtime's onTree computes
///    the same root time).
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
  TapeUpdate,
  TapeHalt, ///< Unterminated block (unverified IR): structured error.
  TapeNumOps
};

/// TapeInst::Flags bits.
enum : uint8_t {
  BreakDepFlag = 1,      ///< Induction/reduction update: ignore the A dep.
  NoEmitFlag = 2,        ///< Profiling event elided (see class comment).
  InnerFlag = 4,         ///< Inner op of a DAG: its root's Tree counts it.
  TreeRootFlag = 8,      ///< Root of a multi-op DAG: emits a Tree event.
  MoveBreakDepFlag = 16, ///< TapeUpdate: the move is an update too.
};
static_assert(int(BreakDepFlag) == int(EvBreakDep), "a mark rides as is");

/// Side table for conditional branches: everything the profiler needs that
/// does not fit the dense TapeInst. A Branch event points at its site.
struct CondBrInfo : BranchSite {
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
///   Call: Dst (or NoValue), Imm (callee), X (offset of the first argument
///     in Function::CallArgs), Y (#args)
///   Ret: A (value or NoValue)
///   Br: X (target tape index), Y (target block id)
///   CondBr: A (cond), X/Y (true/false tape index), Imm (CondBrInfo index)
///   TapeCmpBr: SubOp (compare opcode), Dst, A, B, Flags; X/Y/Imm as CondBr
///     (the shape index of a tree-root compare is CondBrInfo::Shape)
///   TapeLoadOpStore: SubOp (binop opcode), A (addr reg), Dst (load result),
///     B (other operand), X (op result reg), Flags; Y (load line),
///     Imm (shape index) with TreeRootFlag
///   TapeUpdate: SubOp (binop opcode), Dst (r), A (a), B (b), X (v) for
///     r = op a, b; v = move r, where op is an induction/reduction update
///     (BreakDepFlag); MoveBreakDepFlag when the move is one as well (an
///     induction's copy back is, a reduction's is not)
///
/// Tree flags (see TreeShape) go on the pure register ops: binary, unary,
/// Move, PtrAdd, compares and casts, never a const-class op or a BreakDepA
/// update. A tree op is an inner op (InnerFlag), which executes but emits
/// nothing and writes no shadow row, when
///   - every read of its value, up to its register's next write in the
///     block, is by a tree op of the block;
///   - the value dies in the block: the register is rewritten later in it,
///     or no block reads the register before writing it;
///   - all those readers fold into one root;
///   - no Call or region marker lies between it and that root;
///   - no leaf it reads has its row rewritten (by a load, a call result, an
///     emitting const, an Op event or another root) before that root.
/// Any other tree op is a root. One with inner ops (TreeRootFlag) emits one
/// Tree event for its whole DAG; one without keeps its Op event. The ops of
/// TapeCmpBr and TapeLoadOpStore are always roots: their branch or store
/// reads the value. TapeCmpBr's compare rides in its Branch event, as an Op
/// or a Tree. TapeUpdate joins no DAG: its op is an update, and its move
/// reads only that op's value, so it could fold nothing into itself.
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
  /// For names in error messages, and the argument pool Call reads.
  const Function *Src = nullptr;
  uint32_t NumValues = 0;
  uint64_t FrameWords = 0;
  /// Shapes of the multi-op DAGs; each one's leaves are the next NumLeaves
  /// entries of Leaves, in shape order.
  std::vector<TreeShape> Shapes;
  std::vector<TreeLeaf> Leaves;
  /// Fusion and tree tallies (decode-time statistics, asserted on by tests).
  unsigned FusedCmpBr = 0;
  unsigned FusedLoadOpStore = 0;
  unsigned FusedUpdates = 0;
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

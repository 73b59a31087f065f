//===- ir/Instruction.h - IR instruction record -----------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Kremlin IR instruction: a flat three-address record. Kept as one
/// trivially copyable 56-byte struct (rather than a class hierarchy)
/// because the interpreter dispatches over millions of these per profile
/// run, the HCPA runtime wants cheap, uniform access to operands, and a
/// block's instruction vector grows by plain copies. A call's arguments
/// live in its function's argument pool (Function::CallArgs), not here.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_IR_INSTRUCTION_H
#define KREMLIN_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Type.h"

#include <cstdint>
#include <type_traits>

namespace kremlin {

/// Index of a virtual register within a function.
using ValueId = uint32_t;
/// Sentinel for "no value" (void call results, bare ret).
inline constexpr ValueId NoValue = UINT32_MAX;

/// Index of a basic block within a function.
using BlockId = uint32_t;
inline constexpr BlockId NoBlock = UINT32_MAX;

/// Index of a function within a module.
using FuncId = uint32_t;
inline constexpr FuncId NoFunc = UINT32_MAX;

/// Sentinel Instruction::CallArgsAt of a call that passes no arguments
/// without a pool entry (hand-built IR).
inline constexpr uint32_t NoCallArgs = UINT32_MAX;

/// One IR instruction. Field use by opcode:
///   ConstInt: Result, IntImm            ConstFloat: Result, FloatImm
///   binary ops: Result, A, B            unary ops: Result, A
///   GlobalAddr/FrameAddr: Result, Aux   PtrAdd: Result, A, B
///   Load: Result, A                     Store: A (addr), B (value)
///   Call: Result (or NoValue), Aux (callee), CallArgsAt (arguments)
///   Ret: A (or NoValue)                 Br: Aux (target)
///   CondBr: A, Aux (true), Aux2 (false), MergeBlock (immediate post-dom)
///   RegionEnter/RegionExit: Aux (region id)
struct Instruction {
  Opcode Op = Opcode::ConstInt;
  /// Result type, for value-producing opcodes.
  Type Ty = Type::Int;

  /// HCPA: this is an induction-variable update; the data dependence on the
  /// old value is ignored by the shadow-memory update rule (paper §4.1,
  /// "Resolving False and Easy-to-Break Dependencies").
  bool IsInductionUpdate = false;
  /// HCPA: this is a reduction-variable update; same timestamp rule as
  /// induction updates, but the planner also charges reduction overhead.
  bool IsReductionUpdate = false;

  ValueId Result = NoValue;
  ValueId A = NoValue;
  ValueId B = NoValue;

  /// Opcode-specific payload: branch targets, callee id, global/frame array
  /// id, or region id (see the table above).
  uint32_t Aux = 0;
  /// CondBr only: the false target.
  uint32_t Aux2 = 0;
  /// CondBr only: immediate post-dominator block, where the control
  /// dependence this branch pushes is popped (paper §4.1, "Managing Control
  /// Dependencies"). Filled in by the instrumenter.
  BlockId MergeBlock = NoBlock;

  /// Innermost static region containing this instruction (stamped by the
  /// frontend; UINT32_MAX == unknown for hand-built IR). Used to attribute
  /// reduction updates to their enclosing loop region.
  uint32_t EnclosingRegion = UINT32_MAX;

  int64_t IntImm = 0;
  double FloatImm = 0.0;

  /// Call only: where this call's argument count sits in its function's
  /// argument pool; the registers follow it (Function::callArgs).
  uint32_t CallArgsAt = NoCallArgs;

  /// 1-based source line, 0 if synthetic.
  unsigned Line = 0;
};

static_assert(std::is_trivially_copyable_v<Instruction> &&
                  sizeof(Instruction) <= 56,
              "blocks grow by copying instructions; keep them small PODs");

} // namespace kremlin

#endif // KREMLIN_IR_INSTRUCTION_H

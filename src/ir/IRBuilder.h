//===- ir/IRBuilder.h - Convenience IR construction -------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRBuilder appends instructions to a function under construction. It is
/// used by the MiniC lowering and by tests/examples that build IR directly.
/// The builder tracks the current insertion block and allocates virtual
/// registers; it does not do region bookkeeping beyond emitting the marker
/// instructions it is asked for.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_IR_IRBUILDER_H
#define KREMLIN_IR_IRBUILDER_H

#include "ir/Function.h"
#include "ir/Module.h"

#include <cassert>
#include <memory_resource>
#include <span>
#include <string>

namespace kremlin {

/// Builds one function's CFG instruction by instruction.
class IRBuilder {
public:
  /// Blocks it creates take their instruction lists from \p InstMemory.
  IRBuilder(Module &M, Function &F,
            std::pmr::memory_resource *InstMemory =
                std::pmr::get_default_resource())
      : M(M), F(F), InstMemory(InstMemory) {}

  Module &module() { return M; }
  Function &function() { return F; }

  /// Creates a new empty basic block and returns its id.
  BlockId createBlock(std::string Name);

  /// Sets the insertion point to the end of \p BB.
  void setInsertPoint(BlockId BB) {
    assert(BB < F.Blocks.size() && "invalid block");
    CurBlock = BB;
  }

  /// True if the current block already ends in a terminator (in which case
  /// further straight-line emission would be unreachable).
  bool blockTerminated() const;

  /// Allocates a fresh virtual register of type \p Ty.
  ValueId newValue(Type Ty);

  /// Sets the source line attached to subsequently emitted instructions.
  void setLine(unsigned Line) { CurLine = Line; }

  /// Sets the innermost static region stamped on subsequently emitted
  /// instructions.
  void setRegion(RegionId R) { CurRegion = R; }

  // --- Emission helpers. Each returns the result register (or NoValue). ---
  ValueId emitConstInt(int64_t V);
  ValueId emitConstFloat(double V);
  ValueId emitBinary(Opcode Op, Type Ty, ValueId A, ValueId B);
  ValueId emitUnary(Opcode Op, Type Ty, ValueId A);
  ValueId emitMove(Type Ty, ValueId A, ValueId Dest = NoValue);
  ValueId emitGlobalAddr(GlobalId G);
  ValueId emitFrameAddr(uint32_t FrameArrayIdx);
  ValueId emitPtrAdd(ValueId Base, ValueId Index);
  ValueId emitLoad(Type Ty, ValueId Addr);
  void emitStore(ValueId Addr, ValueId Value);
  /// Appends \p Args to the function's argument pool.
  ValueId emitCall(FuncId Callee, Type RetTy, std::span<const ValueId> Args);
  void emitRet(ValueId Value = NoValue);
  void emitBr(BlockId Target);
  void emitCondBr(ValueId Cond, BlockId TrueBB, BlockId FalseBB);
  void emitRegionEnter(RegionId R);
  void emitRegionExit(RegionId R);

  /// Appends an arbitrary pre-filled instruction.
  Instruction &emit(Instruction I);

private:
  Module &M;
  Function &F;
  std::pmr::memory_resource *InstMemory;
  BlockId CurBlock = 0;
  unsigned CurLine = 0;
  RegionId CurRegion = NoRegion;
};

} // namespace kremlin

#endif // KREMLIN_IR_IRBUILDER_H

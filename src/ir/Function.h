//===- ir/Function.h - IR basic blocks and functions ------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BasicBlock and Function containers for the Kremlin IR. A function owns a
/// CFG of basic blocks, a virtual register file description, a set of frame
/// arrays (fixed-size local array storage), and a reference to its static
/// Function region.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_IR_FUNCTION_H
#define KREMLIN_IR_FUNCTION_H

#include "ir/Instruction.h"
#include "ir/Region.h"
#include "ir/Type.h"

#include <cassert>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

namespace kremlin {

/// A block's instructions. Lowering allocates them from an InstArena; a
/// default-constructed list uses the default resource (new/delete).
using InstList = std::pmr::vector<Instruction>;

/// A straight-line sequence of instructions ending in a terminator.
struct BasicBlock {
  std::string Name;
  InstList Insts;

  /// True when the block ends in Br/CondBr/Ret. Analyses that must stay
  /// robust on pre-verifier IR (empty or unterminated blocks) check this
  /// before calling terminator()/successors().
  bool hasTerminator() const {
    return !Insts.empty() && isTerminator(Insts.back().Op);
  }

  /// Returns the terminator, which must exist in a verified function.
  const Instruction &terminator() const {
    assert(hasTerminator() && "block has no terminator");
    return Insts.back();
  }
};

/// A fixed-size local array allocated in the function's frame.
struct FrameArray {
  std::string Name;
  /// Storage size in 8-byte words.
  uint64_t SizeWords = 0;
  Type ElemTy = Type::Int;
};

/// A MiniC function lowered to the Kremlin IR.
struct Function {
  FuncId Id = NoFunc;
  std::string Name;
  Type ReturnTy = Type::Void;

  /// Parameters occupy virtual registers [0, NumParams).
  unsigned NumParams = 0;
  std::vector<Type> ParamTypes;

  /// Total number of virtual registers (>= NumParams).
  unsigned NumValues = 0;

  /// CFG; block 0 is the entry block.
  std::vector<BasicBlock> Blocks;

  /// Fixed-size local arrays.
  std::vector<FrameArray> FrameArrays;

  /// The argument pool: at each call's Instruction::CallArgsAt sits its
  /// argument count, followed by that many argument registers.
  std::vector<ValueId> CallArgs;

  /// The static Function region covering this function's body.
  RegionId FuncRegion = NoRegion;

  /// Successor block ids of \p BB (0, 1 or 2 entries).
  std::vector<BlockId> successors(BlockId BB) const {
    const Instruction &Term = Blocks[BB].terminator();
    switch (Term.Op) {
    case Opcode::Br:
      return {Term.Aux};
    case Opcode::CondBr:
      return {Term.Aux, Term.Aux2};
    default:
      return {};
    }
  }

  /// The registers \p Call passes, in parameter order. Empty when it
  /// passes none or its CallArgsAt lies outside the pool (the verifier's
  /// argument-count check reports the latter).
  std::span<const ValueId> callArgs(const Instruction &Call) const {
    size_t At = Call.CallArgsAt;
    if (At >= CallArgs.size() || CallArgs[At] >= CallArgs.size() - At)
      return {};
    return {CallArgs.data() + At + 1, CallArgs[At]};
  }

  /// Total frame array storage in words.
  uint64_t frameWords() const {
    uint64_t Total = 0;
    for (const FrameArray &FA : FrameArrays)
      Total += FA.SizeWords;
    return Total;
  }
};

} // namespace kremlin

#endif // KREMLIN_IR_FUNCTION_H

//===- ir/IRBuilder.cpp ---------------------------------------------------===//

#include "ir/IRBuilder.h"

using namespace kremlin;

/// Unused instruction slots (56 bytes each) a completed block must hold
/// before it is trimmed. Most blocks of the generated programs hold 2-40
/// instructions; under doubling growth only blocks of more than 32 reach
/// this bound, so trimming copies about 40% of the instructions once and
/// returns about a quarter of the module's instruction memory.
static constexpr size_t MinSlackToTrim = 16;

BlockId IRBuilder::createBlock(std::string Name) {
  F.Blocks.push_back(BasicBlock{std::move(Name), InstList(InstMemory)});
  return static_cast<BlockId>(F.Blocks.size() - 1);
}

bool IRBuilder::blockTerminated() const {
  const BasicBlock &BB = F.Blocks[CurBlock];
  return !BB.Insts.empty() && isTerminator(BB.Insts.back().Op);
}

ValueId IRBuilder::newValue(Type Ty) {
  (void)Ty; // The register file is untyped; types live on instructions.
  return F.NumValues++;
}

Instruction &IRBuilder::emit(Instruction I) {
  assert(CurBlock < F.Blocks.size() && "no insertion block");
  assert(!blockTerminated() && "emitting into a terminated block");
  I.Line = I.Line ? I.Line : CurLine;
  if (I.EnclosingRegion == UINT32_MAX)
    I.EnclosingRegion = CurRegion;
  InstList &Insts = F.Blocks[CurBlock].Insts;
  Insts.push_back(I);
  // A terminator completes the block. Growth by doubling leaves up to half
  // of a large block's capacity unused for the module's lifetime; give a
  // block back the slack once it is worth a copy.
  if (isTerminator(I.Op) && Insts.capacity() - Insts.size() >= MinSlackToTrim)
    Insts.shrink_to_fit();
  return Insts.back();
}

ValueId IRBuilder::emitConstInt(int64_t V) {
  Instruction I;
  I.Op = Opcode::ConstInt;
  I.Ty = Type::Int;
  I.Result = newValue(Type::Int);
  I.IntImm = V;
  return emit(I).Result;
}

ValueId IRBuilder::emitConstFloat(double V) {
  Instruction I;
  I.Op = Opcode::ConstFloat;
  I.Ty = Type::Float;
  I.Result = newValue(Type::Float);
  I.FloatImm = V;
  return emit(I).Result;
}

ValueId IRBuilder::emitBinary(Opcode Op, Type Ty, ValueId A, ValueId B) {
  assert(isBinaryOp(Op) && "not a binary opcode");
  Instruction I;
  I.Op = Op;
  I.Ty = Ty;
  I.Result = newValue(Ty);
  I.A = A;
  I.B = B;
  return emit(I).Result;
}

ValueId IRBuilder::emitUnary(Opcode Op, Type Ty, ValueId A) {
  assert(isUnaryOp(Op) && "not a unary opcode");
  Instruction I;
  I.Op = Op;
  I.Ty = Ty;
  I.Result = newValue(Ty);
  I.A = A;
  return emit(I).Result;
}

ValueId IRBuilder::emitMove(Type Ty, ValueId A, ValueId Dest) {
  Instruction I;
  I.Op = Opcode::Move;
  I.Ty = Ty;
  I.Result = Dest == NoValue ? newValue(Ty) : Dest;
  I.A = A;
  return emit(I).Result;
}

ValueId IRBuilder::emitGlobalAddr(GlobalId G) {
  Instruction I;
  I.Op = Opcode::GlobalAddr;
  I.Ty = Type::Int;
  I.Result = newValue(Type::Int);
  I.Aux = G;
  return emit(I).Result;
}

ValueId IRBuilder::emitFrameAddr(uint32_t FrameArrayIdx) {
  Instruction I;
  I.Op = Opcode::FrameAddr;
  I.Ty = Type::Int;
  I.Result = newValue(Type::Int);
  I.Aux = FrameArrayIdx;
  return emit(I).Result;
}

ValueId IRBuilder::emitPtrAdd(ValueId Base, ValueId Index) {
  return emitBinary(Opcode::PtrAdd, Type::Int, Base, Index);
}

ValueId IRBuilder::emitLoad(Type Ty, ValueId Addr) {
  Instruction I;
  I.Op = Opcode::Load;
  I.Ty = Ty;
  I.Result = newValue(Ty);
  I.A = Addr;
  return emit(I).Result;
}

void IRBuilder::emitStore(ValueId Addr, ValueId Value) {
  Instruction I;
  I.Op = Opcode::Store;
  I.A = Addr;
  I.B = Value;
  emit(I);
}

ValueId IRBuilder::emitCall(FuncId Callee, Type RetTy,
                            std::span<const ValueId> Args) {
  Instruction I;
  I.Op = Opcode::Call;
  I.Ty = RetTy;
  I.Result = RetTy == Type::Void ? NoValue : newValue(RetTy);
  I.Aux = Callee;
  I.CallArgsAt = static_cast<uint32_t>(F.CallArgs.size());
  F.CallArgs.push_back(static_cast<ValueId>(Args.size()));
  F.CallArgs.insert(F.CallArgs.end(), Args.begin(), Args.end());
  return emit(I).Result;
}

void IRBuilder::emitRet(ValueId Value) {
  Instruction I;
  I.Op = Opcode::Ret;
  I.A = Value;
  emit(I);
}

void IRBuilder::emitBr(BlockId Target) {
  Instruction I;
  I.Op = Opcode::Br;
  I.Aux = Target;
  emit(I);
}

void IRBuilder::emitCondBr(ValueId Cond, BlockId TrueBB, BlockId FalseBB) {
  Instruction I;
  I.Op = Opcode::CondBr;
  I.A = Cond;
  I.Aux = TrueBB;
  I.Aux2 = FalseBB;
  emit(I);
}

void IRBuilder::emitRegionEnter(RegionId R) {
  Instruction I;
  I.Op = Opcode::RegionEnter;
  I.Aux = R;
  emit(I);
}

void IRBuilder::emitRegionExit(RegionId R) {
  Instruction I;
  I.Op = Opcode::RegionExit;
  I.Aux = R;
  emit(I);
}

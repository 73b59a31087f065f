//===- analysis/Induction.cpp ---------------------------------------------===//

#include "analysis/Induction.h"

#include <algorithm>
#include <set>

using namespace kremlin;

namespace {

/// The patterns over one loop. Every definition query goes through the
/// loop's view; the marks and operand swaps are written into F, the
/// non-const function the view reads.
class Marker {
public:
  Marker(Function &F, const LoopView &View, InductionMarkResult &Result)
      : F(F), View(View), Result(Result) {}

  void run() {
    markScalarUpdates();
    markMemoryReductions();
  }

private:
  Function &F;
  const LoopView &View;
  InductionMarkResult &Result;

  /// The instruction at \p D, to write a mark or swap into. The view hands
  /// it out read-only, but it lives in F, which is not const, so writing
  /// through the cast is defined.
  Instruction &writable(const DefSite &D) {
    return const_cast<Instruction &>(View.inst(D));
  }

  /// True when \p V is invariant with respect to the loop: all its defs
  /// are outside the loop, or its single in-loop def is a constant.
  bool isInvariant(ValueId V) const {
    if (!View.defines(V))
      return true;
    const DefSite *Only = View.singleDef(V);
    if (!Only)
      return false;
    Opcode Op = View.inst(*Only).Op;
    return Op == Opcode::ConstInt || Op == Opcode::ConstFloat;
  }

  /// True when \p V's in-loop def chains can read \p Banned. Worklist walk
  /// with a visited set (def chains cycle through loop-carried variables);
  /// conservatively true if the walk grows past a size bound.
  bool dependsOn(ValueId V, ValueId Banned) {
    if (V == Banned)
      return true;
    std::set<ValueId> Visited;
    std::vector<ValueId> Work = {V};
    Visited.insert(V);
    while (!Work.empty()) {
      if (Visited.size() > 512)
        return true; // Give up conservatively on huge chains.
      ValueId Cur = Work.back();
      Work.pop_back();
      for (unsigned D : View.FA.Defs.defsOf(Cur)) {
        const DefSite &Def = View.FA.Defs.Defs[D];
        if (!View.inLoop(Def.BB))
          continue;
        const Instruction &I = View.inst(Def);
        auto Visit = [&](ValueId Next) {
          if (Next == NoValue)
            return false;
          if (Next == Banned)
            return true;
          if (Visited.insert(Next).second)
            Work.push_back(Next);
          return false;
        };
        if (Visit(I.A) || Visit(I.B))
          return true;
        for (ValueId Arg : F.callArgs(I))
          if (Visit(Arg))
            return true;
      }
    }
    return false;
  }

  static bool isReductionOpcode(Opcode Op) {
    switch (Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
      return true;
    default:
      return false;
    }
  }

  static bool isCommutative(Opcode Op) {
    return Op == Opcode::Add || Op == Opcode::Mul || Op == Opcode::FAdd ||
           Op == Opcode::FMul;
  }

  static bool isAdditive(Opcode Op) {
    return Op == Opcode::Add || Op == Opcode::Sub || Op == Opcode::FAdd ||
           Op == Opcode::FSub;
  }
  static bool isMultiplicative(Opcode Op) {
    return Op == Opcode::Mul || Op == Opcode::FMul;
  }

  /// Descends from \p Cur through a chain of same-group associative ops
  /// (additive: +,-; multiplicative: *) looking for the instruction that
  /// reads \p V directly — `s = s + x + y` accumulates through
  /// ((s + x) + y), so the accumulator read may be several ops deep. All
  /// sibling operands passed on the way are collected for an
  /// independence-of-v check. Returns nullptr if no such op exists.
  Instruction *findAccumulatorOp(ValueId Cur, ValueId V, bool Additive,
                                 unsigned Depth,
                                 std::vector<ValueId> &Siblings) {
    if (Depth == 0)
      return nullptr;
    const DefSite *CurDef = View.singleDef(Cur);
    if (!CurDef)
      return nullptr;
    Instruction &I = writable(*CurDef);
    if (!isReductionOpcode(I.Op) ||
        (Additive ? !isAdditive(I.Op) : !isMultiplicative(I.Op)))
      return nullptr;
    // Direct hit: one operand is the accumulator. For subtraction only the
    // left side accumulates (s = x - s is not a reduction).
    if (I.A == V) {
      Siblings.push_back(I.B);
      return &I;
    }
    if (I.B == V && isCommutative(I.Op)) {
      std::swap(I.A, I.B); // Normalize: accumulator is operand A.
      Siblings.push_back(I.B);
      return &I;
    }
    // Descend: through A always; through B only for commutative ops.
    size_t Mark = Siblings.size();
    Siblings.push_back(I.B);
    if (Instruction *Found =
            findAccumulatorOp(I.A, V, Additive, Depth - 1, Siblings))
      return Found;
    Siblings.resize(Mark);
    if (isCommutative(I.Op)) {
      Siblings.push_back(I.A);
      if (Instruction *Found =
              findAccumulatorOp(I.B, V, Additive, Depth - 1, Siblings))
        return Found;
      Siblings.resize(Mark);
    }
    return nullptr;
  }

  /// Scalar patterns: the single in-loop def of v is Move(v <- t) where t's
  /// def chain accumulates v through associative ops.
  void markScalarUpdates() {
    // Candidates: the destinations of the loop's own Moves, in register
    // order. Swaps below only touch arithmetic ops, never a Move, so the
    // set cannot change during the walk.
    const DefIndex &DI = View.FA.Defs;
    std::vector<ValueId> Candidates;
    for (BlockId B : View.L.Blocks)
      for (unsigned D = DI.BlockBegin[B]; D < DI.BlockBegin[B + 1]; ++D)
        if (View.inst(DI.Defs[D]).Op == Opcode::Move)
          Candidates.push_back(DI.Defs[D].Value);
    std::sort(Candidates.begin(), Candidates.end());
    Candidates.erase(std::unique(Candidates.begin(), Candidates.end()),
                     Candidates.end());
    for (ValueId V : Candidates) {
      const DefSite *MoveDef = View.singleDef(V);
      if (!MoveDef)
        continue;
      Instruction &MoveInst = writable(*MoveDef);
      if (MoveInst.Op != Opcode::Move)
        continue;
      ValueId T = MoveInst.A;
      const DefSite *TDef = View.singleDef(T);
      if (!TDef)
        continue;
      bool Additive = isAdditive(View.inst(*TDef).Op);
      std::vector<ValueId> Siblings;
      Instruction *Acc =
          findAccumulatorOp(T, V, Additive, /*Depth=*/8, Siblings);
      if (!Acc)
        continue;
      Instruction &OpInst = *Acc;
      // Every non-accumulator input must be independent of v, or this is a
      // genuine recurrence that must not be broken.
      bool Recurrence = false;
      for (ValueId Sibling : Siblings)
        if (dependsOn(Sibling, V)) {
          Recurrence = true;
          break;
        }
      if (Recurrence)
        continue;
      // Induction iff the whole update is an integer-additive chain with
      // loop-invariant steps; anything else that accumulates is a
      // reduction.
      bool StepInvariant = true;
      for (ValueId Sibling : Siblings)
        if (!isInvariant(Sibling)) {
          StepInvariant = false;
          break;
        }
      bool IsAdditive =
          Additive && (OpInst.Op == Opcode::Add || OpInst.Op == Opcode::Sub);
      if (StepInvariant && IsAdditive) {
        if (!OpInst.IsInductionUpdate) {
          OpInst.IsInductionUpdate = true;
          ++Result.NumInductionUpdates;
        }
        // The copy back into the variable is part of the same update: if it
        // kept its control dependence, the loop test would re-serialize
        // through it. Break it as well.
        MoveInst.IsInductionUpdate = true;
      } else if (!OpInst.IsReductionUpdate) {
        OpInst.IsReductionUpdate = true;
        ++Result.NumReductionUpdates;
      }
    }
  }

  /// Structural equality of two address-computation chains. Leaves compare
  /// by register identity, constant value, or global/frame array id. Loads
  /// compare by address-chain equality (the caller guarantees there is no
  /// intervening store, because both chains were emitted while lowering one
  /// assignment statement).
  bool sameValueChain(ValueId A, ValueId B, unsigned Depth) {
    if (A == B)
      return true;
    if (Depth == 0 || A == NoValue || B == NoValue)
      return false;
    const DefIndex &DI = View.FA.Defs;
    std::span<const unsigned> DA = DI.defsOf(A), DB = DI.defsOf(B);
    if (DA.size() != 1 || DB.size() != 1)
      return false;
    const Instruction &IA = View.inst(DI.Defs[DA[0]]);
    const Instruction &IB = View.inst(DI.Defs[DB[0]]);
    if (IA.Op != IB.Op)
      return false;
    switch (IA.Op) {
    case Opcode::ConstInt:
      return IA.IntImm == IB.IntImm;
    case Opcode::ConstFloat:
      return IA.FloatImm == IB.FloatImm;
    case Opcode::GlobalAddr:
    case Opcode::FrameAddr:
      return IA.Aux == IB.Aux;
    case Opcode::Load:
      return sameValueChain(IA.A, IB.A, Depth - 1);
    default:
      if (isBinaryOp(IA.Op))
        return sameValueChain(IA.A, IB.A, Depth - 1) &&
               sameValueChain(IA.B, IB.B, Depth - 1);
      if (isUnaryOp(IA.Op))
        return sameValueChain(IA.A, IB.A, Depth - 1);
      return false;
    }
  }

  /// Memory reduction: Store(addr, t) where t = Op(load(addr'), e) and
  /// addr' computes the same address as addr.
  void markMemoryReductions() {
    for (BlockId BB : View.L.Blocks) {
      for (const Instruction &Store : F.Blocks[BB].Insts) {
        if (Store.Op != Opcode::Store)
          continue;
        const DefSite *ValDef = View.singleDef(Store.B);
        if (!ValDef)
          continue;
        Instruction &OpInst = writable(*ValDef);
        if (!isReductionOpcode(OpInst.Op) || OpInst.IsReductionUpdate ||
            OpInst.IsInductionUpdate)
          continue;

        auto LoadMatches = [&](ValueId Operand) {
          const DefSite *LDef = View.singleDef(Operand);
          if (!LDef)
            return false;
          const Instruction &LoadInst = View.inst(*LDef);
          if (LoadInst.Op != Opcode::Load)
            return false;
          return sameValueChain(LoadInst.A, Store.A, /*Depth=*/16);
        };

        if (LoadMatches(OpInst.A)) {
          OpInst.IsReductionUpdate = true;
          ++Result.NumMemoryReductions;
        } else if (isCommutative(OpInst.Op) && LoadMatches(OpInst.B)) {
          std::swap(OpInst.A, OpInst.B);
          OpInst.IsReductionUpdate = true;
          ++Result.NumMemoryReductions;
        }
      }
    }
  }
};

} // namespace

InductionMarkResult
kremlin::markInductionAndReductions(Function &F, const FunctionAnalysis &FA) {
  InductionMarkResult Result;
  LoopScratch Scratch(F);
  for (const Loop &L : FA.LI.Loops) {
    LoopView View(F, FA, L, Scratch);
    Marker(F, View, Result).run();
  }
  return Result;
}

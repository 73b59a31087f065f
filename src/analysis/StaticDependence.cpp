//===- analysis/StaticDependence.cpp --------------------------------------===//

#include "analysis/StaticDependence.h"

#include "analysis/DataFlow.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <optional>
#include <set>

using namespace kremlin;

namespace {

constexpr unsigned MaxEvalDepth = 32;

uint64_t absU64(int64_t V) {
  return V < 0 ? static_cast<uint64_t>(-(V + 1)) + 1 : static_cast<uint64_t>(V);
}

uint64_t gcd64(uint64_t A, uint64_t B) {
  while (B != 0) {
    uint64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// A linear form over the loop's normalized iteration number:
///   IterCoeff * i + Const + sum(SymCoeff_k * sym_k)
/// Symbols are live-in registers (token = V*2) or the unknown initial value
/// of an induction variable (token = V*2+1), kept sorted by token.
struct Affine {
  int64_t IterCoeff = 0;
  int64_t Const = 0;
  std::vector<std::pair<uint64_t, int64_t>> Syms;

  bool isConstant() const { return IterCoeff == 0 && Syms.empty(); }
};

Affine affineConst(int64_t C) {
  Affine A;
  A.Const = C;
  return A;
}

Affine affineSym(uint64_t Token) {
  Affine A;
  A.Syms.push_back({Token, 1});
  return A;
}

Affine affineAdd(const Affine &A, const Affine &B, int64_t Sign) {
  Affine R;
  R.IterCoeff = A.IterCoeff + Sign * B.IterCoeff;
  R.Const = A.Const + Sign * B.Const;
  size_t I = 0, J = 0;
  while (I < A.Syms.size() || J < B.Syms.size()) {
    if (J == B.Syms.size() ||
        (I < A.Syms.size() && A.Syms[I].first < B.Syms[J].first)) {
      R.Syms.push_back(A.Syms[I++]);
    } else if (I == A.Syms.size() || B.Syms[J].first < A.Syms[I].first) {
      R.Syms.push_back({B.Syms[J].first, Sign * B.Syms[J].second});
      ++J;
    } else {
      int64_t C = A.Syms[I].second + Sign * B.Syms[J].second;
      if (C != 0)
        R.Syms.push_back({A.Syms[I].first, C});
      ++I;
      ++J;
    }
  }
  return R;
}

Affine affineScale(const Affine &A, int64_t K) {
  Affine R;
  R.IterCoeff = A.IterCoeff * K;
  R.Const = A.Const * K;
  for (const auto &[Tok, C] : A.Syms)
    if (C * K != 0)
      R.Syms.push_back({Tok, C * K});
  return R;
}

/// One memory access inside the loop, with its resolved address. A Param
/// base is an array parameter of the enclosing function: a definite array,
/// but one that may alias any global or other parameter the caller chose to
/// pass (never a frame array -- an activation cannot be its own caller).
struct MemAccess {
  bool IsStore = false;
  BlockId BB = NoBlock;
  unsigned Idx = 0;
  unsigned Line = 0;
  /// Address resolution state.
  enum class Base : unsigned char { Global, Frame, Param, Unknown } Kind =
      Base::Unknown;
  uint32_t BaseId = 0;
  bool OffsetKnown = false;
  Affine Offset;
  /// Stores only: the stored value is a recognized memory-reduction update
  /// (a[x] = a[x] op e), breakable per HCPA's §4.1 rule.
  bool ReductionStore = false;
  /// Stores only: the reduction operator when ReductionStore is set.
  Opcode ReductionOpc = Opcode::Add;
};

/// May two resolved bases overlap? Identical (Kind, Id) tuples always do;
/// distinct globals and distinct frame arrays never do; an array parameter
/// may alias any global or any other parameter.
bool basesMayAlias(MemAccess::Base K1, uint32_t Id1, MemAccess::Base K2,
                   uint32_t Id2) {
  if (K1 == K2 && Id1 == Id2)
    return true;
  if (K1 == MemAccess::Base::Frame || K2 == MemAccess::Base::Frame)
    return false;
  return K1 == MemAccess::Base::Param || K2 == MemAccess::Base::Param;
}

/// Per-loop evaluation context: affine forms for registers, address
/// resolution, and iteration-cost estimation, all read through the loop's
/// view.
class LoopAnalyzer {
public:
  explicit LoopAnalyzer(const LoopView &View)
      : View(View), F(View.F), L(View.L), DI(View.FA.Defs) {
    findInductionVars();
  }

  /// Whole-function constant folding through single-definition chains.
  std::optional<int64_t> constEval(ValueId V, unsigned Depth = 0) const {
    if (Depth > MaxEvalDepth || V == NoValue)
      return std::nullopt;
    std::span<const unsigned> Ds = DI.defsOf(V);
    if (Ds.size() != 1)
      return std::nullopt;
    return fold(View.inst(DI.Defs[Ds[0]]), Depth + 1);
  }

  /// Affine form of register \p V at a body use point, or nullopt.
  std::optional<Affine> evaluate(ValueId V, unsigned Depth = 0) const {
    if (Depth > MaxEvalDepth || V == NoValue)
      return std::nullopt;
    auto IndIt = InductionStep.find(V);
    if (IndIt != InductionStep.end()) {
      // V = init_V + step * i. A compile-time-constant init folds away the
      // symbol, which lets the GCD/Banerjee tests compare subscript pairs
      // with different strides.
      auto InitIt = InductionInit.find(V);
      Affine A = InitIt != InductionInit.end()
                     ? affineConst(InitIt->second)
                     : affineSym(static_cast<uint64_t>(V) * 2 + 1);
      A.IterCoeff = IndIt->second;
      return A;
    }
    if (!View.defines(V)) {
      // Loop-invariant: a compile-time constant or an opaque symbol.
      if (std::optional<int64_t> C = constEval(V))
        return affineConst(*C);
      return affineSym(static_cast<uint64_t>(V) * 2);
    }
    const DefSite *Def = View.singleDef(V);
    if (!Def)
      return std::nullopt;
    const Instruction &I = View.inst(*Def);
    switch (I.Op) {
    case Opcode::ConstInt:
      return affineConst(I.IntImm);
    case Opcode::Move:
      return evaluate(I.A, Depth + 1);
    case Opcode::Neg: {
      std::optional<Affine> A = evaluate(I.A, Depth + 1);
      return A ? std::optional<Affine>(affineScale(*A, -1)) : std::nullopt;
    }
    case Opcode::Add:
    case Opcode::Sub: {
      std::optional<Affine> A = evaluate(I.A, Depth + 1);
      std::optional<Affine> B = evaluate(I.B, Depth + 1);
      if (!A || !B)
        return std::nullopt;
      return affineAdd(*A, *B, I.Op == Opcode::Add ? 1 : -1);
    }
    case Opcode::Mul: {
      std::optional<Affine> A = evaluate(I.A, Depth + 1);
      std::optional<Affine> B = evaluate(I.B, Depth + 1);
      if (!A || !B)
        return std::nullopt;
      if (B->isConstant())
        return affineScale(*A, B->Const);
      if (A->isConstant())
        return affineScale(*B, A->Const);
      return std::nullopt;
    }
    default:
      return std::nullopt;
    }
  }

  /// Resolves the address register of a Load/Store to base + affine offset.
  void resolveAddress(ValueId V, MemAccess &Out, unsigned Depth = 0) const {
    if (Depth > MaxEvalDepth || V == NoValue)
      return;
    const DefSite *Def = nullptr;
    if (View.defines(V)) {
      Def = View.singleDef(V);
    } else if (DI.defsOf(V).size() == 1) {
      Def = &DI.Defs[DI.defsOf(V)[0]];
    } else if (DI.defsOf(V).empty() && V < F.NumParams) {
      // Array parameter: a definite base address with offset 0.
      Out.Kind = MemAccess::Base::Param;
      Out.BaseId = V;
      Out.OffsetKnown = true;
      return;
    }
    if (!Def)
      return;
    const Instruction &I = View.inst(*Def);
    switch (I.Op) {
    case Opcode::GlobalAddr:
      Out.Kind = MemAccess::Base::Global;
      Out.BaseId = I.Aux;
      Out.OffsetKnown = true;
      return;
    case Opcode::FrameAddr:
      Out.Kind = MemAccess::Base::Frame;
      Out.BaseId = I.Aux;
      Out.OffsetKnown = true;
      return;
    case Opcode::Move:
      resolveAddress(I.A, Out, Depth + 1);
      return;
    case Opcode::PtrAdd: {
      resolveAddress(I.A, Out, Depth + 1);
      if (Out.Kind == MemAccess::Base::Unknown)
        return;
      std::optional<Affine> Off = evaluate(I.B);
      if (!Off) {
        Out.OffsetKnown = false;
        return;
      }
      if (Out.OffsetKnown)
        Out.Offset = affineAdd(Out.Offset, *Off, 1);
      return;
    }
    default:
      return;
    }
  }

  /// Exact iteration count of the loop when the header exit test compares
  /// an affine function of one induction variable against a compile-time
  /// constant; nullopt otherwise. Feeds the Banerjee bounds.
  std::optional<int64_t> tripCount() const {
    const BasicBlock &H = F.Blocks[L.Header];
    if (!H.hasTerminator())
      return std::nullopt;
    const Instruction &T = H.terminator();
    if (T.Op != Opcode::CondBr)
      return std::nullopt;
    bool TrueIn = View.inLoop(T.Aux);
    bool FalseIn = View.inLoop(T.Aux2);
    if (TrueIn == FalseIn)
      return std::nullopt;
    const DefSite *CDef = View.singleDef(T.A);
    if (!CDef)
      return std::nullopt;
    const Instruction &C = View.inst(*CDef);
    std::optional<Affine> A = evaluate(C.A);
    std::optional<Affine> B = evaluate(C.B);
    if (!A || !B)
      return std::nullopt;
    // Normalize to "the loop continues while E(i) rel 0" with E = K + S*i.
    Affine E;
    bool Strict = false;
    switch (C.Op) {
    case Opcode::CmpLT:
      E = affineAdd(*A, *B, -1);
      Strict = true;
      break;
    case Opcode::CmpLE:
      E = affineAdd(*A, *B, -1);
      break;
    case Opcode::CmpGT:
      E = affineAdd(*B, *A, -1);
      Strict = true;
      break;
    case Opcode::CmpGE:
      E = affineAdd(*B, *A, -1);
      break;
    default:
      return std::nullopt;
    }
    if (!TrueIn) {
      // The loop continues on the false edge: negate the relation.
      // !(E < 0) == -E <= 0, and !(E <= 0) == -E < 0.
      E = affineScale(E, -1);
      Strict = !Strict;
    }
    if (!E.Syms.empty())
      return std::nullopt;
    int64_t S = E.IterCoeff;
    int64_t K = E.Const;
    if (S <= 0)
      return std::nullopt; // Not provably counting toward the exit.
    // Continue while K + S*i < 0 (strict) or <= 0: the first violating i is
    // the trip count.
    __int128 Num = -static_cast<__int128>(K);
    __int128 Trips =
        Strict ? (Num + S - 1) / S : (Num >= 0 ? Num / S + 1 : 0);
    if (Trips < 0)
      Trips = 0;
    if (Trips > (static_cast<__int128>(1) << 40))
      return std::nullopt;
    return static_cast<int64_t>(Trips);
  }

  /// Does the single-def chain of \p V (within the loop) read register
  /// \p Target? Conservative: unanalyzable chains count as depending.
  bool chainDependsOn(ValueId V, ValueId Target) const {
    std::set<ValueId> Visited;
    return chainDependsOnImpl(V, Target, Visited);
  }

  bool chainDependsOnImpl(ValueId V, ValueId Target,
                          std::set<ValueId> &Visited) const {
    if (V == Target)
      return true;
    if (V == NoValue)
      return true;
    if (!Visited.insert(V).second)
      return false; // Cycle (e.g. an induction recurrence): the first visit
                    // already explored every register this one can read.
    if (!View.defines(V))
      return false; // Loop-invariant: cannot carry Target's running value.
    const DefSite *Def = View.singleDef(V);
    if (!Def)
      return true;
    const Instruction &I = View.inst(*Def);
    if (I.Op == Opcode::Call || I.Op == Opcode::Store)
      return true;
    bool Depends = false;
    forEachUse(F, I, [&](ValueId U) {
      Depends = Depends || chainDependsOnImpl(U, Target, Visited);
    });
    return Depends;
  }

  /// Structural equality of two value chains: both compute the same
  /// expression over the same roots (constants, array cells, live-ins).
  /// Used by the min/max recognizer to match the guard's operand against
  /// the conditionally assigned value, which lowering loads separately.
  bool sameChainEq(ValueId A, ValueId B, unsigned Depth = 0) const {
    if (A == B)
      return true;
    if (Depth > MaxEvalDepth || A == NoValue || B == NoValue)
      return false;
    const Instruction *IA = singleDefInst(A);
    const Instruction *IB = singleDefInst(B);
    if (!IA || !IB) {
      // Distinct registers without usable defs only match as themselves.
      return false;
    }
    // Look through copies on either side.
    if (IA->Op == Opcode::Move)
      return sameChainEq(IA->A, B, Depth + 1);
    if (IB->Op == Opcode::Move)
      return sameChainEq(A, IB->A, Depth + 1);
    if (IA->Op != IB->Op)
      return false;
    switch (IA->Op) {
    case Opcode::ConstInt:
      return IA->IntImm == IB->IntImm;
    case Opcode::ConstFloat:
      return IA->FloatImm == IB->FloatImm;
    case Opcode::GlobalAddr:
    case Opcode::FrameAddr:
      return IA->Aux == IB->Aux;
    case Opcode::Load:
    case Opcode::Neg:
    case Opcode::FNeg:
    case Opcode::Not:
    case Opcode::IntToFloat:
    case Opcode::FloatToInt:
      return sameChainEq(IA->A, IB->A, Depth + 1);
    default:
      if (isBinaryOp(IA->Op))
        return sameChainEq(IA->A, IB->A, Depth + 1) &&
               sameChainEq(IA->B, IB->B, Depth + 1);
      return false;
    }
  }

  /// The unique defining instruction of \p V (in-loop single def preferred,
  /// else the whole-function single def), or nullptr.
  const Instruction *singleDefInst(ValueId V) const {
    if (V == NoValue)
      return nullptr;
    if (View.defines(V)) {
      const DefSite *Def = View.singleDef(V);
      return Def ? &View.inst(*Def) : nullptr;
    }
    std::span<const unsigned> Ds = DI.defsOf(V);
    return Ds.size() == 1 ? &View.inst(DI.Defs[Ds[0]]) : nullptr;
  }

  // --- Iteration-cost model -------------------------------------------------
  //
  // A unit-cost dependence DAG over the loop body, linearized in sorted
  // block order (lowering emits header < body < latch, so this order is
  // topological for structured loops). Induction updates, region markers
  // and terminators are excluded: HCPA's timestamp rule excludes them from
  // the measured critical path too.

  struct CostModel {
    static constexpr unsigned NoNode = UINT32_MAX;
    /// Node of instruction Idx of the loop block at position P in
    /// Loop::Blocks: NodeOf[InstBase[P] + Idx], NoNode for excluded insts.
    std::vector<unsigned> InstBase;
    std::vector<unsigned> NodeOf;
    /// Same-iteration def->use edges: node n's def nodes are
    /// PredList[PredBegin[n] .. PredBegin[n + 1]).
    std::vector<unsigned> PredBegin = {0};
    std::vector<unsigned> PredList;
    std::vector<BlockId> BlockOf;

    unsigned numNodes() const {
      return static_cast<unsigned>(BlockOf.size());
    }
    std::span<const unsigned> preds(unsigned N) const {
      return {PredList.data() + PredBegin[N], PredBegin[N + 1] - PredBegin[N]};
    }
  };

  CostModel buildCostModel() const {
    CostModel CM;
    // The last node defining each register, kept in the scratch's
    // per-register slots and restored before returning.
    std::vector<unsigned> &LastDef = View.Scratch.slots();
    std::vector<ValueId> Touched;
    for (BlockId B : L.Blocks) { // Already sorted ascending.
      CM.InstBase.push_back(static_cast<unsigned>(CM.NodeOf.size()));
      for (unsigned Idx = 0; Idx < F.Blocks[B].Insts.size(); ++Idx) {
        const Instruction &I = F.Blocks[B].Insts[Idx];
        if (isTerminator(I.Op) || I.Op == Opcode::RegionEnter ||
            I.Op == Opcode::RegionExit || I.IsInductionUpdate) {
          CM.NodeOf.push_back(CostModel::NoNode);
          continue;
        }
        unsigned Node = CM.numNodes();
        CM.NodeOf.push_back(Node);
        CM.BlockOf.push_back(B);
        forEachUse(F, I, [&](ValueId V) {
          if (V < F.NumValues && LastDef[V] != LoopScratch::NoSlot)
            CM.PredList.push_back(LastDef[V]);
        });
        CM.PredBegin.push_back(static_cast<unsigned>(CM.PredList.size()));
        if (producesValue(I.Op) && I.Result < F.NumValues) {
          if (LastDef[I.Result] == LoopScratch::NoSlot)
            Touched.push_back(I.Result);
          LastDef[I.Result] = Node;
        }
      }
    }
    for (ValueId V : Touched)
      LastDef[V] = LoopScratch::NoSlot;
    return CM;
  }

  /// The cost-model node of instruction \p Idx of loop block \p B, or
  /// NoNode when the model excludes it.
  unsigned nodeAt(const CostModel &CM, BlockId B, unsigned Idx) const {
    if (!View.inLoop(B) || Idx >= F.Blocks[B].Insts.size())
      return CostModel::NoNode;
    return CM.NodeOf[CM.InstBase[View.Scratch.pos(B)] + Idx];
  }

  /// Longest unit-cost dependence path through one iteration.
  static unsigned criticalPathEstimate(const CostModel &CM) {
    unsigned Max = 0;
    std::vector<unsigned> Depth(CM.numNodes(), 0);
    for (unsigned N = 0; N < CM.numNodes(); ++N) {
      unsigned Best = 0;
      for (unsigned P : CM.preds(N))
        Best = std::max(Best, Depth[P]);
      Depth[N] = Best + 1;
      Max = std::max(Max, Depth[N]);
    }
    return Max;
  }

  /// Longest path from node \p Src to node \p Dst through must-execute
  /// blocks; 0 when no such path exists.
  unsigned chainCost(const CostModel &CM, unsigned Src, unsigned Dst) const {
    if (Src >= CM.numNodes() || Dst >= CM.numNodes() || Src > Dst)
      return 0;
    std::vector<unsigned> Dist(CM.numNodes(), 0);
    Dist[Src] = 1;
    for (unsigned N = Src + 1; N <= Dst; ++N) {
      if (!View.dominatesAllLatches(CM.BlockOf[N]))
        continue;
      for (unsigned P : CM.preds(N))
        if (Dist[P] > 0)
          Dist[N] = std::max(Dist[N], Dist[P] + 1);
    }
    return Dist[Dst];
  }

private:
  /// Induction variables of this loop: registers whose canonical update
  /// (`v = Move t` with t = `v +/- step`, both marked by the Induction
  /// pass) has a compile-time-constant step.
  void findInductionVars() {
    for (BlockId B : L.Blocks)
      for (unsigned D = DI.BlockBegin[B]; D < DI.BlockBegin[B + 1]; ++D)
        addInductionVar(View.inst(DI.Defs[D]));
  }

  void addInductionVar(const Instruction &MoveI) {
    if (MoveI.Op != Opcode::Move || !MoveI.IsInductionUpdate)
      return;
    ValueId V = MoveI.Result;
    // The update must be V's only in-loop definition: otherwise the
    // affine form init + step*i does not hold.
    if (!View.singleDef(V))
      return;
    const DefSite *OpDef = View.singleDef(MoveI.A);
    if (!OpDef)
      return;
    const Instruction &OpI = View.inst(*OpDef);
    if (!OpI.IsInductionUpdate ||
        (OpI.Op != Opcode::Add && OpI.Op != Opcode::Sub))
      return;
    // Induction normalizes the accumulator to operand A; B is the step.
    std::optional<int64_t> Step = constEval(OpI.B);
    if (!Step)
      return;
    InductionStep[V] = OpI.Op == Opcode::Add ? *Step : -*Step;
    if (std::optional<int64_t> Init = initialValueOf(V))
      InductionInit[V] = *Init;
  }

  /// Compile-time initial value of induction variable \p V: the unique
  /// out-of-loop definition, constant-folded.
  std::optional<int64_t> initialValueOf(ValueId V) const {
    const DefSite *OutDef = nullptr;
    for (unsigned D : DI.defsOf(V)) {
      const DefSite &Def = DI.Defs[D];
      if (View.inLoop(Def.BB))
        continue;
      if (OutDef)
        return std::nullopt;
      OutDef = &Def;
    }
    if (!OutDef)
      return std::nullopt;
    return fold(View.inst(*OutDef), /*OperandDepth=*/0);
  }

  /// Folds \p I when it is a constant or a Move, Neg, Add, Sub or Mul of
  /// constants, evaluating its operands with constEval at \p OperandDepth.
  std::optional<int64_t> fold(const Instruction &I,
                              unsigned OperandDepth) const {
    switch (I.Op) {
    case Opcode::ConstInt:
      return I.IntImm;
    case Opcode::Move:
      return constEval(I.A, OperandDepth);
    case Opcode::Neg: {
      std::optional<int64_t> A = constEval(I.A, OperandDepth);
      return A ? std::optional<int64_t>(-*A) : std::nullopt;
    }
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul: {
      std::optional<int64_t> A = constEval(I.A, OperandDepth);
      std::optional<int64_t> B = constEval(I.B, OperandDepth);
      if (!A || !B)
        return std::nullopt;
      if (I.Op == Opcode::Add)
        return *A + *B;
      if (I.Op == Opcode::Sub)
        return *A - *B;
      return *A * *B;
    }
    default:
      return std::nullopt;
    }
  }

  const LoopView &View;
  const Function &F;
  const Loop &L;
  const DefIndex &DI;
  std::map<ValueId, int64_t> InductionStep;
  std::map<ValueId, int64_t> InductionInit;
};

/// The innermost Loop region enclosing the first of the loop's header
/// instructions that has one.
RegionId loopRegion(const Module &M, const Function &F, const Loop &L) {
  for (const Instruction &I : F.Blocks[L.Header].Insts)
    if (RegionId R = M.enclosingLoopRegion(I.EnclosingRegion); R != NoRegion)
      return R;
  return NoRegion;
}

/// Sum/product reductions both render as their OpenMP clause operator;
/// a subtracting accumulator is a sum of negated terms.
const char *reductionOpName(Opcode Op) {
  switch (Op) {
  case Opcode::Mul:
  case Opcode::FMul:
    return "*";
  default:
    return "+";
  }
}

/// Human name for a resolved base, for diagnostics.
std::string baseDisplayName(const Module &M, const Function &F,
                            MemAccess::Base Kind, uint32_t Id) {
  switch (Kind) {
  case MemAccess::Base::Global:
    if (Id < M.Globals.size())
      return M.Globals[Id].Name + "[]";
    break;
  case MemAccess::Base::Frame:
    if (Id < F.FrameArrays.size())
      return F.FrameArrays[Id].Name + "[]";
    break;
  case MemAccess::Base::Param:
    return formatString("parameter #%u", Id);
  case MemAccess::Base::Unknown:
    break;
  }
  return "memory";
}

/// Recognizes the conditional-move min/max reduction idiom on scalar \p V:
///
///   if (t REL v) v = t;    // t loop-varying, independent of v
///
/// where REL is an ordering comparison between v and (a chain structurally
/// equal to) t, the update is v's only in-loop definition, no store or call
/// separates the guard from the update, and nothing else in the loop reads
/// v. Under those conditions v is exactly a running min or max -- an
/// associative, commutative reduction -- even though HCPA's runtime rule
/// (which only breaks +/* accumulators) will measure the loop as serial.
/// Returns "min", "max", or nullptr.
const char *minMaxIdiom(const LoopView &View, const LoopAnalyzer &LA,
                        ValueId V) {
  const Function &F = View.F;
  const DefSite *Def = View.singleDef(V);
  if (!Def)
    return nullptr;
  const Instruction &MoveI = View.inst(*Def);
  if (MoveI.Op != Opcode::Move || MoveI.IsInductionUpdate ||
      MoveI.IsReductionUpdate)
    return nullptr;
  BlockId MB = Def->BB;
  if (View.dominatesAllLatches(MB))
    return nullptr; // Unconditional replacement is not a fold.
  ValueId T = MoveI.A;
  if (LA.chainDependsOn(T, V))
    return nullptr;

  // The update block must hang off a single in-loop branch...
  BlockId Pred = NoBlock;
  for (BlockId B : View.L.Blocks) {
    if (B == MB || !F.Blocks[B].hasTerminator())
      continue;
    for (BlockId Succ : F.successors(B))
      if (Succ == MB) {
        if (Pred != NoBlock)
          return nullptr;
        Pred = B;
      }
  }
  if (Pred == NoBlock)
    return nullptr;
  const Instruction &Br = F.Blocks[Pred].terminator();
  if (Br.Op != Opcode::CondBr || Br.Aux == Br.Aux2)
    return nullptr;
  bool OnTrue = Br.Aux == MB;
  if (!OnTrue && Br.Aux2 != MB)
    return nullptr;

  // ...whose condition orders v against the replacement value.
  const Instruction *Cmp = LA.singleDefInst(Br.A);
  if (!Cmp)
    return nullptr;
  bool Lt;
  switch (Cmp->Op) {
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
    Lt = true;
    break;
  case Opcode::CmpGT:
  case Opcode::CmpGE:
  case Opcode::FCmpGT:
  case Opcode::FCmpGE:
    Lt = false;
    break;
  default:
    return nullptr;
  }
  // Either operand may reach v through one copy.
  const Instruction *VCopy = nullptr;
  auto IsV = [&](ValueId X) {
    if (X == V)
      return true;
    const Instruction *XI = LA.singleDefInst(X);
    if (XI && XI->Op == Opcode::Move && XI->A == V) {
      VCopy = XI;
      return true;
    }
    return false;
  };
  bool VFirst;
  if (IsV(Cmp->A) && LA.sameChainEq(Cmp->B, T))
    VFirst = true;
  else if (IsV(Cmp->B) && LA.sameChainEq(Cmp->A, T))
    VFirst = false;
  else
    return nullptr;

  // The guard's operand and the assigned value are separate loads in the
  // lowered IR; no store or call may intervene between their evaluations.
  const BasicBlock &PB = F.Blocks[Pred];
  size_t CmpIdx = PB.Insts.size();
  for (size_t Idx = 0; Idx < PB.Insts.size(); ++Idx)
    if (&PB.Insts[Idx] == Cmp)
      CmpIdx = Idx;
  if (CmpIdx == PB.Insts.size())
    return nullptr; // Guard not computed in the branching block.
  for (size_t Idx = CmpIdx + 1; Idx < PB.Insts.size(); ++Idx)
    if (PB.Insts[Idx].Op == Opcode::Store || PB.Insts[Idx].Op == Opcode::Call)
      return nullptr;
  for (const Instruction &I : F.Blocks[MB].Insts)
    if (I.Op == Opcode::Store || I.Op == Opcode::Call)
      return nullptr;

  // Nothing else in the loop may observe the running value.
  for (BlockId B : View.L.Blocks)
    for (const Instruction &I : F.Blocks[B].Insts) {
      if (&I == Cmp || &I == &MoveI || &I == VCopy)
        continue;
      bool ReadsV = false;
      forEachUse(F, I, [&](ValueId U) { ReadsV |= U == V; });
      if (ReadsV)
        return nullptr;
    }

  // Replacing v by t when P(t, v) holds keeps the smaller value iff the
  // update fires when t is below v.
  bool TakesSmaller = VFirst ? !Lt : Lt;
  if (!OnTrue)
    TakesSmaller = !TakesSmaller;
  return TakesSmaller ? "min" : "max";
}

StaticLoopResult classifyLoop(const Module &M, const Function &F,
                              const Loop &L, bool HasNestedLoop,
                              const FunctionAnalysis &FA,
                              LoopScratch &Scratch, const ModRefResult *MR) {
  StaticLoopResult Result;
  Result.Func = F.Id;
  Result.Header = L.Header;
  Result.Region = loopRegion(M, F, L);

  // Only innermost loops get a definite verdict: an inner loop's carried
  // dependences and trip counts make the subscript tests meaningless for
  // the outer loop.
  if (HasNestedLoop) {
    Result.Reason = "contains a nested loop";
    return Result;
  }

  LoopView View(F, FA, L, Scratch);
  LoopAnalyzer LA(View);

  // --- Calls: map callee mod/ref summaries to caller-side effects ----------
  //
  // Each summarized call becomes a set of whole-array accesses (unknown
  // offsets) against the bases the callee can reach: its globals, plus
  // whatever arrays the caller passed into dereferenced parameters. A call
  // with no usable summary keeps the pre-interprocedural behavior: the loop
  // forfeits its verdict.
  struct CallEffect {
    MemAccess::Base Kind = MemAccess::Base::Unknown;
    uint32_t BaseId = 0;
    bool Read = false;
    bool Write = false;
    unsigned Line = 0;
    FuncId Callee = NoFunc;
  };
  std::vector<CallEffect> CallEffects;
  std::set<std::string> CalleeNames;
  std::set<std::string> OpaqueCallees;
  for (BlockId B : L.Blocks)
    for (const Instruction &I : F.Blocks[B].Insts) {
      if (I.Op != Opcode::Call)
        continue;
      ++Result.CallSites;
      std::string Name =
          I.Aux < M.Functions.size() ? M.Functions[I.Aux].Name : "?";
      CalleeNames.insert(Name);
      const ModRefSummary *S = MR ? MR->of(I.Aux) : nullptr;
      if (!S || S->Opaque) {
        OpaqueCallees.insert(Name);
        continue;
      }
      bool Usable = true;
      std::vector<CallEffect> Local;
      for (GlobalId G : S->GlobalReads)
        Local.push_back({MemAccess::Base::Global, G, true, false, I.Line,
                         I.Aux});
      for (GlobalId G : S->GlobalWrites)
        Local.push_back({MemAccess::Base::Global, G, false, true, I.Line,
                         I.Aux});
      std::span<const ValueId> Args = F.callArgs(I);
      unsigned NumK = static_cast<unsigned>(
          std::max(S->ParamReads.size(), S->ParamWrites.size()));
      for (unsigned K = 0; K < NumK; ++K) {
        bool Rd = S->readsParam(K);
        bool Wr = S->writesParam(K);
        if (!Rd && !Wr)
          continue;
        MemAccess Root;
        if (K < Args.size())
          LA.resolveAddress(Args[K], Root);
        if (Root.Kind == MemAccess::Base::Unknown) {
          Usable = false;
          break;
        }
        Local.push_back({Root.Kind, Root.BaseId, Rd, Wr, I.Line, I.Aux});
      }
      if (!Usable) {
        OpaqueCallees.insert(Name);
        continue;
      }
      ++Result.CallsSummarized;
      CallEffects.insert(CallEffects.end(), Local.begin(), Local.end());
    }
  Result.Callees.assign(CalleeNames.begin(), CalleeNames.end());

  if (!OpaqueCallees.empty()) {
    // Satellite fix: name every distinct unsummarizable callee, not just
    // the first one encountered.
    std::string Names;
    for (const std::string &N : OpaqueCallees) {
      if (!Names.empty())
        Names += ", ";
      Names += N + "()";
    }
    Result.Reason = "calls " + Names + "; callee side effects not summarizable";
    return Result;
  }

  // --- Scalar dependences + reduction recognition ---------------------------
  std::vector<ScalarCarriedDep> ScalarDeps =
      findLoopCarriedScalarDeps(View);
  const ScalarCarriedDep *BlockingScalar = nullptr;
  const ScalarCarriedDep *CertainScalar = nullptr;
  std::set<ValueId> ReductionValues;
  std::set<std::string> ReductionOps;
  bool MinMax = false;
  std::map<ValueId, const char *> MinMaxMemo;
  auto MinMaxOf = [&](ValueId V) {
    auto It = MinMaxMemo.find(V);
    if (It == MinMaxMemo.end())
      It = MinMaxMemo.emplace(V, minMaxIdiom(View, LA, V)).first;
    return It->second;
  };
  for (const ScalarCarriedDep &Dep : ScalarDeps) {
    if (Dep.Breakable) {
      // Separate reduction accumulators (which need a reduction clause)
      // from induction bookkeeping (which vanishes under privatization).
      const Instruction &DefI = View.inst(Dep.Def);
      const Instruction *OpI = &DefI;
      if (DefI.Op == Opcode::Move && !DefI.IsReductionUpdate)
        if (const Instruction *Src = LA.singleDefInst(DefI.A))
          OpI = Src;
      if (OpI->IsReductionUpdate) {
        ReductionValues.insert(Dep.Value);
        ReductionOps.insert(reductionOpName(OpI->Op));
      }
      continue;
    }
    if (const char *MM = MinMaxOf(Dep.Value)) {
      ReductionValues.insert(Dep.Value);
      ReductionOps.insert(MM);
      MinMax = true;
      continue;
    }
    if (!BlockingScalar)
      BlockingScalar = &Dep;
    if (Dep.Certain && !CertainScalar)
      CertainScalar = &Dep;
  }

  // --- Memory accesses and subscript tests ---------------------------------
  std::vector<MemAccess> Accesses;
  unsigned NumStores = 0;
  std::set<std::pair<BlockId, unsigned>> MemReductionStores;
  for (BlockId B : L.Blocks)
    for (unsigned Idx = 0; Idx < F.Blocks[B].Insts.size(); ++Idx) {
      const Instruction &I = F.Blocks[B].Insts[Idx];
      if (I.Op != Opcode::Load && I.Op != Opcode::Store)
        continue;
      MemAccess A;
      A.IsStore = I.Op == Opcode::Store;
      A.BB = B;
      A.Idx = Idx;
      A.Line = I.Line;
      LA.resolveAddress(I.A, A);
      if (A.IsStore) {
        ++NumStores;
        // Memory reductions mark the op producing the stored value.
        if (const DefSite *ValDef = View.singleDef(I.B)) {
          const Instruction &ValI = View.inst(*ValDef);
          A.ReductionStore = ValI.IsReductionUpdate;
          A.ReductionOpc = ValI.Op;
        }
      }
      Accesses.push_back(A);
    }

  bool MemUnknown = false;
  std::string MemUnknownWhy;
  struct MemDep {
    const MemAccess *Store = nullptr;
    const MemAccess *Load = nullptr;
    int64_t Distance = 0;
  };
  std::vector<MemDep> CarriedFlow;

  bool AnyCallWrite = std::any_of(
      CallEffects.begin(), CallEffects.end(),
      [](const CallEffect &E) { return E.Write; });
  if (NumStores > 0 || AnyCallWrite) {
    // Any unresolved access may alias any write.
    for (const MemAccess &A : Accesses)
      if (A.Kind == MemAccess::Base::Unknown || !A.OffsetKnown) {
        MemUnknown = true;
        MemUnknownWhy = formatString(
            "unresolved %s subscript at line %u",
            A.IsStore ? "store" : "load", A.Line);
        break;
      }
  }

  // Flow dependences through summarized calls: a callee write is an
  // unknown-offset store, so any read of a base it may alias (direct load,
  // or a read inside any callee) could observe a prior iteration's write.
  // Write/write overlaps are output dependences and stay breakable.
  if (!MemUnknown)
    for (const CallEffect &E : CallEffects) {
      auto Conflict = [&](MemAccess::Base Kind, uint32_t BaseId) {
        MemUnknown = true;
        MemUnknownWhy = formatString(
            "call to %s() at line %u may carry a dependence through %s",
            E.Callee < M.Functions.size() ? M.Functions[E.Callee].Name.c_str()
                                          : "?",
            E.Line, baseDisplayName(M, F, Kind, BaseId).c_str());
      };
      if (E.Write) {
        for (const MemAccess &A : Accesses)
          if (!A.IsStore && basesMayAlias(E.Kind, E.BaseId, A.Kind, A.BaseId))
            Conflict(E.Kind, E.BaseId);
        for (const CallEffect &E2 : CallEffects)
          if (E2.Read &&
              basesMayAlias(E.Kind, E.BaseId, E2.Kind, E2.BaseId))
            Conflict(E.Kind, E.BaseId);
      }
      if (!MemUnknown && E.Read) {
        for (const MemAccess &A : Accesses)
          if (A.IsStore && basesMayAlias(E.Kind, E.BaseId, A.Kind, A.BaseId))
            Conflict(E.Kind, E.BaseId);
      }
      if (MemUnknown)
        break;
    }

  std::optional<int64_t> Trip; // Computed lazily for the Banerjee bounds.
  bool TripComputed = false;

  if (!MemUnknown)
    for (const MemAccess &S : Accesses) {
      if (!S.IsStore)
        continue;
      for (const MemAccess &Ld : Accesses) {
        if (Ld.IsStore)
          continue;
        if (!basesMayAlias(S.Kind, S.BaseId, Ld.Kind, Ld.BaseId))
          continue; // Provably distinct arrays (word-granular model).
        if (S.Kind != Ld.Kind || S.BaseId != Ld.BaseId) {
          // May alias without a common base: an array parameter against a
          // global or another parameter. Subscripts are incomparable.
          MemUnknown = true;
          MemUnknownWhy = formatString(
              "%s may alias %s (store line %u / load line %u)",
              baseDisplayName(M, F, S.Kind, S.BaseId).c_str(),
              baseDisplayName(M, F, Ld.Kind, Ld.BaseId).c_str(), S.Line,
              Ld.Line);
          break;
        }
        Affine D = affineAdd(S.Offset, Ld.Offset, -1);
        int64_t A1 = S.Offset.IterCoeff;
        int64_t A2 = Ld.Offset.IterCoeff;
        if (D.Syms.empty() && A1 == A2) {
          int64_t C = A1;
          if (C == 0) {
            // ZIV: both subscripts loop-invariant. A reduction store into
            // the cell it reloads is the memory-reduction idiom.
            if (D.Const == 0) {
              if (S.ReductionStore) {
                MemReductionStores.insert({S.BB, S.Idx});
                ReductionOps.insert(reductionOpName(S.ReductionOpc));
              } else {
                CarriedFlow.push_back({&S, &Ld, 1});
              }
            }
            continue;
          }
          // Strong SIV: equal stride. Same cell when iterations differ by
          // dist = (K_store - K_load) / C; a positive integral dist is a
          // flow dependence into a later iteration.
          if (D.Const % C != 0)
            continue; // Never the same cell.
          int64_t Dist = D.Const / C;
          if (Dist > 0)
            CarriedFlow.push_back({&S, &Ld, Dist});
          // Dist == 0: loop-independent. Dist < 0: anti, breakable by
          // privatization (paper §4.1).
          continue;
        }
        // Weak-SIV/MIV pair: dependence iff integers i1, i2 in [0, trips)
        // satisfy  A1*i1 - A2*i2 = RHS  with RHS = K_load - K_store + the
        // symbolic difference. The GCD test refutes over all integers; the
        // Banerjee bounds refute over the iteration space, then over the
        // flow direction (i1 < i2) only -- anti and loop-independent
        // solutions are breakable and do not block a doall verdict.
        uint64_t G = gcd64(A1 == A2 ? absU64(A1) : gcd64(absU64(A1),
                                                         absU64(A2)),
                           0);
        for (const auto &[Tok, Coef] : D.Syms)
          G = gcd64(G, absU64(Coef));
        int64_t DiffConst = S.Offset.Const - Ld.Offset.Const;
        if (G > 0 && absU64(DiffConst) % G != 0)
          continue; // GCD: no integer solution at all.
        if (!D.Syms.empty()) {
          MemUnknown = true;
          MemUnknownWhy = formatString(
              "subscript pair line %u / line %u not comparable (symbolic)",
              S.Line, Ld.Line);
          break;
        }
        if (!TripComputed) {
          Trip = LA.tripCount();
          TripComputed = true;
        }
        if (!Trip || *Trip <= 0) {
          MemUnknown = true;
          MemUnknownWhy = formatString(
              "subscript pair line %u / line %u needs a trip count the "
              "header test does not provide",
              S.Line, Ld.Line);
          break;
        }
        __int128 U = *Trip - 1;
        __int128 RHS = -static_cast<__int128>(DiffConst);
        // Banerjee over the full iteration rectangle [0,U]^2.
        __int128 Lo = (A1 < 0 ? A1 * U : 0) - (A2 > 0 ? A2 * U : 0);
        __int128 Hi = (A1 > 0 ? A1 * U : 0) - (A2 < 0 ? A2 * U : 0);
        if (RHS < Lo || RHS > Hi)
          continue; // No dependence of any kind in bounds.
        // Direction '<' (carried flow: store iteration strictly earlier
        // than load iteration). Substituting i2 = i1 + j with j in [1, U],
        // i1 in [0, U-1] gives (A1-A2)*i1 - A2*j; independent interval
        // bounds over-approximate the coupled feasible set, which is safe
        // for refutation.
        if (U < 1)
          continue; // Single iteration: nothing can be carried.
        __int128 Ad = static_cast<__int128>(A1) - A2;
        __int128 T1Lo = Ad < 0 ? Ad * (U - 1) : 0;
        __int128 T1Hi = Ad > 0 ? Ad * (U - 1) : 0;
        __int128 JA = -static_cast<__int128>(A2) * 1;
        __int128 JB = -static_cast<__int128>(A2) * U;
        __int128 LoF = T1Lo + (JA < JB ? JA : JB);
        __int128 HiF = T1Hi + (JA > JB ? JA : JB);
        if (RHS >= LoF && RHS <= HiF) {
          MemUnknown = true;
          MemUnknownWhy = formatString(
              "possible carried flow between subscripts at line %u / line "
              "%u (Banerjee inconclusive)",
              S.Line, Ld.Line);
          break;
        }
        // Only anti (i1 > i2) or loop-independent solutions remain:
        // breakable by privatization, so the pair does not block a doall.
      }
      if (MemUnknown)
        break;
    }

  // --- Verdict --------------------------------------------------------------
  Result.Reductions = static_cast<unsigned>(ReductionValues.size() +
                                            MemReductionStores.size());
  Result.MinMaxReduction = MinMax;
  for (const std::string &Op : ReductionOps) {
    if (!Result.ReductionOps.empty())
      Result.ReductionOps += ",";
    Result.ReductionOps += Op;
  }

  if (!BlockingScalar && !MemUnknown && CarriedFlow.empty()) {
    std::string CallNote =
        Result.CallSites == 0
            ? ""
            : formatString(" (%u call site%s summarized)", Result.CallSites,
                           Result.CallSites == 1 ? "" : "s");
    if (Result.Reductions > 0) {
      Result.Verdict = LoopVerdict::ProvablyReduction;
      Result.Reason = formatString(
          "parallelizable with reduction(%s); all other dependences "
          "breakable%s",
          Result.ReductionOps.c_str(), CallNote.c_str());
      return Result;
    }
    Result.Verdict = LoopVerdict::ProvablyDoall;
    Result.Reason =
        (NumStores == 0 && CallEffects.empty()
             ? "no stores; all carried scalar deps breakable"
             : "all subscript pairs independent or breakable") +
        CallNote;
    return Result;
  }

  // ProvablySerial needs a dependence that (a) certainly occurs every
  // iteration pair and (b) whose cycle dominates the iteration's critical
  // path; otherwise independent per-iteration work could still pipeline
  // (DOACROSS), and the verdict stays Unknown. Loops containing calls never
  // get the serial verdict: the callee's work makes the unit-cost critical
  // path estimate meaningless.
  LoopAnalyzer::CostModel CM = LA.buildCostModel();
  unsigned CpEst = LoopAnalyzer::criticalPathEstimate(CM);
  auto CycleDominates = [&](unsigned C) {
    return Result.CallSites == 0 && C >= 2 && 2 * C + 4 >= CpEst;
  };

  if (CertainScalar) {
    unsigned Use =
        LA.nodeAt(CM, CertainScalar->Use.BB, CertainScalar->Use.Idx);
    unsigned Def =
        LA.nodeAt(CM, CertainScalar->Def.BB, CertainScalar->Def.Idx);
    unsigned C = 0;
    if (Use != LoopAnalyzer::CostModel::NoNode &&
        Def != LoopAnalyzer::CostModel::NoNode)
      C = LA.chainCost(CM, Use, Def);
    if (CycleDominates(C)) {
      const Instruction &DefI = View.inst(CertainScalar->Def);
      const Instruction &UseI = F.Blocks[CertainScalar->Use.BB]
                                    .Insts[CertainScalar->Use.Idx];
      Result.Verdict = LoopVerdict::ProvablySerial;
      Result.DepSrcLine = DefI.Line;
      Result.DepDstLine = UseI.Line;
      Result.Reason = formatString(
          "loop-carried scalar dependence: value written at line %u is read "
          "at line %u in the next iteration",
          DefI.Line, UseI.Line);
      return Result;
    }
  }

  for (const MemDep &Dep : CarriedFlow) {
    // Distance-1 must-execute flow dependence: iteration i+1 reads what
    // iteration i wrote, every iteration.
    if (Dep.Distance != 1)
      continue;
    if (!View.dominatesAllLatches(Dep.Store->BB) ||
        !View.dominatesAllLatches(Dep.Load->BB))
      continue;
    unsigned Ld = LA.nodeAt(CM, Dep.Load->BB, Dep.Load->Idx);
    unsigned St = LA.nodeAt(CM, Dep.Store->BB, Dep.Store->Idx);
    unsigned C = 0;
    if (Ld != LoopAnalyzer::CostModel::NoNode &&
        St != LoopAnalyzer::CostModel::NoNode)
      C = LA.chainCost(CM, Ld, St);
    if (!CycleDominates(C))
      continue;
    Result.Verdict = LoopVerdict::ProvablySerial;
    Result.DepSrcLine = Dep.Store->Line;
    Result.DepDstLine = Dep.Load->Line;
    Result.Reason = formatString(
        "loop-carried flow dependence (distance %lld): array cell written "
        "at line %u is read at line %u in a later iteration",
        static_cast<long long>(Dep.Distance), Dep.Store->Line,
        Dep.Load->Line);
    return Result;
  }

  // Unknown: report the most specific obstruction.
  if (MemUnknown) {
    Result.Reason = MemUnknownWhy;
  } else if (!CarriedFlow.empty()) {
    Result.Reason = formatString(
        "carried flow dependence (distance %lld, line %u -> line %u) does "
        "not dominate the iteration critical path",
        static_cast<long long>(CarriedFlow.front().Distance),
        CarriedFlow.front().Store->Line, CarriedFlow.front().Load->Line);
  } else if (BlockingScalar) {
    const Instruction &UseI =
        F.Blocks[BlockingScalar->Use.BB].Insts[BlockingScalar->Use.Idx];
    Result.Reason = formatString(
        "possible carried scalar dependence at line %u", UseI.Line);
  } else {
    Result.Reason = "not provable";
  }
  return Result;
}

} // namespace

std::vector<StaticLoopResult>
kremlin::analyzeFunctionDependence(const Module &M, const Function &F,
                                   const FunctionAnalysis &FA,
                                   const ModRefResult *MR) {
  std::vector<StaticLoopResult> Results;
  const std::vector<Loop> &Loops = FA.LI.Loops;
  if (F.Blocks.empty() || Loops.empty())
    return Results;
  std::vector<char> HasNestedLoop(Loops.size(), 0);
  for (const Loop &L : Loops)
    if (L.Parent >= 0)
      HasNestedLoop[static_cast<size_t>(L.Parent)] = 1;
  LoopScratch Scratch(F);
  for (size_t Idx = 0; Idx < Loops.size(); ++Idx)
    Results.push_back(classifyLoop(M, F, Loops[Idx], HasNestedLoop[Idx], FA,
                                   Scratch, MR));
  return Results;
}

StaticAnalysisResult kremlin::analyzeModuleDependence(const Module &M) {
  StaticAnalysisResult Result;
  // The per-function work runs on every available CPU, each task writing
  // only its own slot; the call graph and mod/ref stay module-wide.
  const size_t N = M.Functions.size();
  std::vector<FunctionAnalysis> FA(N);
  parallelFor(N, [&](size_t I) {
    FA[I] = buildFunctionAnalysis(M.Functions[I]);
  });
  CallGraph CG(M);
  Result.ModRef = computeModRef(M, CG, FA);
  std::vector<std::vector<StaticLoopResult>> PerFunction(N);
  parallelFor(N, [&](size_t I) {
    PerFunction[I] =
        analyzeFunctionDependence(M, M.Functions[I], FA[I], &Result.ModRef);
    FA[I] = FunctionAnalysis(); // Dead from here; do not let it pile up.
  });
  for (std::vector<StaticLoopResult> &FR : PerFunction)
    std::move(FR.begin(), FR.end(), std::back_inserter(Result.Loops));
  for (const StaticLoopResult &L : Result.Loops) {
    switch (L.Verdict) {
    case LoopVerdict::ProvablyDoall:
      ++Result.NumDoall;
      break;
    case LoopVerdict::ProvablySerial:
      ++Result.NumSerial;
      break;
    case LoopVerdict::ProvablyReduction:
      ++Result.NumReduction;
      break;
    case LoopVerdict::Unknown:
      ++Result.NumUnknown;
      break;
    }
    Result.CallSites += L.CallSites;
    Result.CallsSummarized += L.CallsSummarized;
    Result.ReductionsRecognized += L.Reductions;
  }
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::Counter &Analyzed = Reg.counter("static.loops_analyzed");
  static telemetry::Counter &Doall = Reg.counter("static.verdict_doall");
  static telemetry::Counter &Serial = Reg.counter("static.verdict_serial");
  static telemetry::Counter &Unknown = Reg.counter("static.verdict_unknown");
  static telemetry::Counter &Reduction =
      Reg.counter("static.verdict_reduction");
  static telemetry::Counter &CallsSum =
      Reg.counter("static.calls_summarized");
  static telemetry::Counter &Reductions = Reg.counter("static.reductions");
  Analyzed.add(Result.Loops.size());
  Doall.add(Result.NumDoall);
  Serial.add(Result.NumSerial);
  Unknown.add(Result.NumUnknown);
  Reduction.add(Result.NumReduction);
  CallsSum.add(Result.CallsSummarized);
  Reductions.add(Result.ReductionsRecognized);
  return Result;
}

//===- interp/Tape.cpp - IR -> execution tape decoder ---------------------===//

#include "interp/Tape.h"

#include "rt/Timestamp.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace kremlin;

namespace {

uint8_t tapeOp(Opcode Op) { return static_cast<uint8_t>(Op); }

bool isCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEQ:
  case Opcode::CmpNE:
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::CmpGT:
  case Opcode::CmpGE:
  case Opcode::FCmpEQ:
  case Opcode::FCmpNE:
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
  case Opcode::FCmpGT:
  case Opcode::FCmpGE:
    return true;
  default:
    return false;
  }
}

uint8_t breakFlag(const Instruction &I) {
  return (I.IsInductionUpdate || I.IsReductionUpdate) ? BreakDepFlag : 0;
}

bool isConstClass(Opcode Op) {
  return Op == Opcode::ConstInt || Op == Opcode::ConstFloat ||
         Op == Opcode::GlobalAddr || Op == Opcode::FrameAddr;
}

/// A pure register op (arithmetic, compares, logic, unary ops, casts,
/// Move and PtrAdd) that may join an expression tree: not an
/// induction/reduction update, whose A dependence must not flow on.
bool isTreeOp(uint8_t Op, uint8_t Flags) {
  // Opcode.h lists arithmetic, compares, logic, unary ops and casts from
  // Add up to Move.
  static_assert(Opcode::Add < Opcode::Move && Opcode::Move < Opcode::PtrAdd);
  return !(Flags & BreakDepFlag) &&
         ((Op >= tapeOp(Opcode::Add) && Op <= tapeOp(Opcode::Move)) ||
          Op == tapeOp(Opcode::PtrAdd));
}

/// One tree op of the function being decoded, with the tree it roots so
/// far.
struct TreeNode {
  uint32_t Tape = 0; ///< Its instruction's index in TapeFunction::Code.
  uint32_t Step = 0; ///< Its position in event order.
  uint32_t LeafBegin = 0, LeafEnd = 0; ///< Its leaves in DecodeScratch.
  uint32_t CdDist = 0, Ops = 0, Work = 0;
  bool Inner = false;
};

/// What the decoder knows about one register of the function at hand.
struct RegState {
  uint32_t Writers = 0; ///< Static writers.
  uint32_t Reads = 0;   ///< Static reads: every operand counts.
  bool ConstWriter = false; ///< Its (last) writer is const-class.
  /// Step of its latest write so far (0 = none). Steps count events in
  /// program order across the function, so a write in an earlier block
  /// always predates a node of the current one.
  uint32_t LastWrite = 0;
  /// 1 + index into Nodes of the tree op computing it while that op may
  /// still become an inner temporary, until its one reader is planned.
  uint32_t Pending = 0;
  /// 1 + index into TapeFunction::Leaves of its entry in the shape being
  /// recorded (leaf deduplication).
  uint32_t LeafAt = 0;
};

/// Planning state shared by the functions of one module, so decoding
/// allocates it once.
struct DecodeScratch {
  std::vector<RegState> Regs;
  std::vector<TreeNode> Nodes;
  std::vector<TreeLeaf> Leaves;
};

/// Lowers one function. Branch targets are recorded as block ids first and
/// patched to tape indices once every block's start offset is known.
class FunctionDecoder {
public:
  FunctionDecoder(const Function &F, const std::vector<uint64_t> &GlobalBase,
                  DecodeScratch &Scratch)
      : F(F), GlobalBase(GlobalBase), Regs(Scratch.Regs),
        Nodes(Scratch.Nodes), Leaves(Scratch.Leaves) {}

  TapeFunction decode() {
    TF.Src = &F;
    TF.NumValues = F.NumValues;
    TF.FrameWords = F.frameWords();
    // Frame-array bases become offsets from the frame base pointer.
    FrameOffset.resize(F.FrameArrays.size());
    uint64_t Off = 0;
    for (size_t A = 0; A < F.FrameArrays.size(); ++A) {
      FrameOffset[A] = Off;
      Off += F.FrameArrays[A].SizeWords;
    }

    // Static writer counts, for the const event elision (a register with
    // several writers can hold a real availability time that a later const
    // write must clear, so only single-writer consts are elidable), and
    // static read counts, for expression trees.
    Regs.assign(F.NumValues, RegState());
    Nodes.clear();
    auto Read = [&](ValueId V) {
      if (V < F.NumValues)
        ++Regs[V].Reads;
    };
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &I : B.Insts) {
        if (I.Result != NoValue && I.Result < F.NumValues) {
          ++Regs[I.Result].Writers;
          Regs[I.Result].ConstWriter = isConstClass(I.Op);
        }
        Read(I.A);
        Read(I.B);
        for (ValueId V : F.callArgs(I))
          Read(V);
      }

    BlockStart.resize(F.Blocks.size());
    for (uint32_t B = 0; B < F.Blocks.size(); ++B) {
      BlockStart[B] = static_cast<uint32_t>(TF.Code.size());
      lowerBlock(B);
      planTrees(BlockStart[B]);
    }
    patchTargets();
    return std::move(TF);
  }

private:
  const Function &F;
  const std::vector<uint64_t> &GlobalBase;
  TapeFunction TF;
  std::vector<uint64_t> FrameOffset;
  std::vector<uint32_t> BlockStart;
  std::vector<RegState> &Regs;
  std::vector<TreeNode> &Nodes;
  std::vector<TreeLeaf> &Leaves; ///< Leaves of the block's nodes.
  uint32_t Step = 0;
  /// Step of the latest Call or region marker.
  uint32_t LastBarrier = 0;

  void lowerBlock(uint32_t BlockId) {
    const std::vector<Instruction> &Insts = F.Blocks[BlockId].Insts;
    for (size_t I = 0; I < Insts.size(); ++I) {
      if (tryFuseLoadOpStore(Insts, I, BlockId) ||
          tryFuseCmpBr(Insts, I, BlockId))
        continue;
      lowerOne(Insts[I], BlockId);
    }
    if (!F.Blocks[BlockId].hasTerminator()) {
      TapeInst T;
      T.Op = TapeHalt;
      TF.Code.push_back(T);
    }
  }

  /// Operand materializations are pure and operand-free, so they can be
  /// hoisted above a load when reordering them cannot change a value the
  /// fusion pattern reads.
  static bool isHoistable(const Instruction &X) { return isConstClass(X.Op); }

  /// Load r1 = [p]; r2 = r1 op x; [p] = r2  =>  one superinstruction.
  /// The address register must survive the load and the op (p is not
  /// overwritten), so the store address provably equals the load address.
  /// The triple may be interleaved with operand materializations (e.g. the
  /// ConstInt feeding `op` in `a[i] = a[i] + 3`); those are emitted ahead
  /// of the fused instruction, which is legal because they are pure,
  /// read nothing, and are barred from defining a register the pattern
  /// consumes out of order.
  bool tryFuseLoadOpStore(const std::vector<Instruction> &Insts, size_t &I,
                          uint32_t BlockId) {
    const Instruction &Ld = Insts[I];
    if (Ld.Op != Opcode::Load)
      return false;
    size_t J = I + 1; // Op position; window 1 hoists in [I+1, J).
    while (J < Insts.size() && J - I <= 2 && isHoistable(Insts[J]))
      ++J;
    if (J + 1 >= Insts.size())
      return false;
    const Instruction &Op = Insts[J];
    if (!isBinaryOp(Op.Op) || Op.A != Ld.Result)
      return false;
    size_t K = J + 1; // Store position; window 2 hoists in [J+1, K).
    while (K < Insts.size() && K - J <= 2 && isHoistable(Insts[K]))
      ++K;
    if (K >= Insts.size())
      return false;
    const Instruction &St = Insts[K];
    if (St.Op != Opcode::Store || St.A != Ld.A || St.B != Op.Result)
      return false;
    if (Ld.Result == Ld.A || Op.Result == Ld.A)
      return false; // Address register clobbered: addresses may differ.
    // Window 1 runs before `op` either way; hoisting it above the load
    // only hazards the load's own reads, and a def of the load's result
    // would mean `op` never read the load at all.
    for (size_t H = I + 1; H < J; ++H)
      if (Insts[H].Result == Ld.A || Insts[H].Result == Ld.Result)
        return false;
    // Window 2 originally ran after `op`: hoisting must not redefine
    // anything the load, op, or store consumes.
    for (size_t H = J + 1; H < K; ++H)
      if (Insts[H].Result == Ld.A || Insts[H].Result == Ld.Result ||
          Insts[H].Result == Op.B || Insts[H].Result == Op.Result)
        return false;
    for (size_t H = I + 1; H < J; ++H)
      lowerOne(Insts[H], BlockId);
    for (size_t H = J + 1; H < K; ++H)
      lowerOne(Insts[H], BlockId);
    TapeInst T;
    T.Op = TapeLoadOpStore;
    T.SubOp = tapeOp(Op.Op);
    T.Flags = breakFlag(Op);
    T.A = Ld.A;
    T.Dst = Ld.Result;
    T.B = Op.B;
    T.X = Op.Result;
    T.Y = Ld.Line;
    TF.Code.push_back(T);
    ++TF.FusedLoadOpStore;
    I = K;
    return true;
  }

  /// rc = a cmp b; condbr rc  =>  one superinstruction.
  bool tryFuseCmpBr(const std::vector<Instruction> &Insts, size_t &I,
                    uint32_t BlockId) {
    if (I + 1 >= Insts.size())
      return false;
    const Instruction &Cmp = Insts[I];
    const Instruction &Br = Insts[I + 1];
    if (!isCompare(Cmp.Op) || Br.Op != Opcode::CondBr || Br.A != Cmp.Result)
      return false;
    TapeInst T;
    T.Op = TapeCmpBr;
    T.SubOp = tapeOp(Cmp.Op);
    T.Flags = breakFlag(Cmp);
    T.Dst = Cmp.Result;
    T.A = Cmp.A;
    T.B = Cmp.B;
    T.Imm = addBranchInfo(Br, BlockId);
    TF.Code.push_back(T);
    ++TF.FusedCmpBr;
    I += 1;
    return true;
  }

  /// Plans the expression trees of the block whose tape code starts at
  /// \p Begin, in event order (after fusion, so hoisted constants and the
  /// load inside a TapeLoadOpStore are seen where they execute), and sets
  /// the tree flags and shapes of its instructions.
  void planTrees(uint32_t Begin) {
    const uint32_t FirstNode = static_cast<uint32_t>(Nodes.size());
    Leaves.clear();
    for (uint32_t K = Begin; K < TF.Code.size(); ++K) {
      const TapeInst &T = TF.Code[K];
      ++Step;
      if (T.Op == TapeLoadOpStore) {
        Regs[T.Dst].LastWrite = Step++; // The load, then the op.
        if (isTreeOp(T.SubOp, T.Flags))
          addNode(K, T.SubOp, T.Dst, T.B, FirstNode);
        Regs[T.X].LastWrite = Step;
        continue;
      }
      if (T.Op == TapeCmpBr) {
        if (isTreeOp(T.SubOp, T.Flags))
          addNode(K, T.SubOp, T.A, T.B, FirstNode);
      } else if (isTreeOp(T.Op, T.Flags)) {
        addNode(K, T.Op, T.A, T.B, FirstNode);
        if (Regs[T.Dst].Writers == 1 && Regs[T.Dst].Reads == 1)
          Regs[T.Dst].Pending = static_cast<uint32_t>(Nodes.size());
      } else if (T.Op == tapeOp(Opcode::Call) ||
                 T.Op == tapeOp(Opcode::RegionEnter) ||
                 T.Op == tapeOp(Opcode::RegionExit)) {
        // Frames, instance ids and the control-dependence cache change.
        LastBarrier = Step;
      }
      if (T.Dst != NoValue)
        Regs[T.Dst].LastWrite = Step;
    }
    // Whatever no later tree op absorbed is a root.
    for (uint32_t N = FirstNode; N < Nodes.size(); ++N) {
      const TreeNode &Node = Nodes[N];
      TapeInst &T = TF.Code[Node.Tape];
      if (Node.Inner) {
        T.Flags |= InnerFlag;
        ++TF.InnerOps;
      } else if (Node.Ops > 1) {
        T.Flags |= TreeRootFlag;
        uint32_t Shape = addShape(Node);
        if (T.Op == TapeCmpBr)
          TF.Branches[T.Imm].Shape = Shape;
        else
          T.Imm = Shape;
      }
    }
  }

  /// Plans the tree op at tape index \p K (opcode \p Op, operands \p A and
  /// \p B) at the current step: absorbs each operand that is a pending
  /// temporary of this block (from node \p FirstNode on) and can still
  /// join, and records the other operands as leaves.
  void addNode(uint32_t K, uint8_t Op, ValueId A, ValueId B,
               uint32_t FirstNode) {
    TreeNode N;
    N.Tape = K;
    N.Step = Step;
    const uint32_t Lat = latencyOf(static_cast<Opcode>(Op));
    N.CdDist = Lat;
    N.Ops = 1;
    N.Work = Lat;
    N.LeafBegin = static_cast<uint32_t>(Leaves.size());
    for (ValueId V : {A, B}) {
      if (V == NoValue)
        continue;
      if (TreeNode *Sub = absorb(V, FirstNode)) {
        Sub->Inner = true;
        N.CdDist = std::max(N.CdDist, Sub->CdDist + Lat);
        N.Ops += Sub->Ops;
        N.Work += Sub->Work;
        for (uint32_t L = Sub->LeafBegin; L < Sub->LeafEnd; ++L) {
          TreeLeaf Leaf = Leaves[L];
          Leaf.Dist += Lat;
          Leaves.push_back(Leaf);
        }
      } else if (!(Regs[V].Writers == 1 && Regs[V].ConstWriter)) {
        // A single-writer constant always reads as time 0: no leaf.
        Leaves.push_back({V, Lat});
      }
    }
    N.LeafEnd = static_cast<uint32_t>(Leaves.size());
    Nodes.push_back(N);
  }

  /// The pending tree computing \p V, if this read (its only one) may fold
  /// it into the reader: nothing between its root and here wrote one of its
  /// leaves or changed frames, instances or control state.
  TreeNode *absorb(ValueId V, uint32_t FirstNode) {
    uint32_t P = Regs[V].Pending;
    if (P <= FirstNode)
      return nullptr; // None, or one from an earlier block.
    Regs[V].Pending = 0;
    TreeNode &Sub = Nodes[P - 1];
    if (LastBarrier > Sub.Step)
      return nullptr;
    for (uint32_t L = Sub.LeafBegin; L < Sub.LeafEnd; ++L)
      if (Regs[Leaves[L].Reg].LastWrite > Sub.Step)
        return nullptr;
    return &Sub;
  }

  /// Appends \p N's shape, one leaf per register at its largest distance.
  uint32_t addShape(const TreeNode &N) {
    const uint32_t First = static_cast<uint32_t>(TF.Leaves.size());
    for (uint32_t L = N.LeafBegin; L < N.LeafEnd; ++L) {
      const TreeLeaf &Leaf = Leaves[L];
      uint32_t &At = Regs[Leaf.Reg].LeafAt;
      if (At > First) {
        TF.Leaves[At - 1].Dist = std::max(TF.Leaves[At - 1].Dist, Leaf.Dist);
        continue;
      }
      TF.Leaves.push_back(Leaf);
      At = static_cast<uint32_t>(TF.Leaves.size());
    }
    TreeShape S;
    S.NumLeaves = static_cast<uint32_t>(TF.Leaves.size()) - First;
    S.CdDist = N.CdDist;
    S.Ops = N.Ops;
    S.Work = N.Work;
    TF.Shapes.push_back(S);
    return static_cast<uint32_t>(TF.Shapes.size() - 1);
  }

  void markNoEmit(TapeInst &T) {
    if (T.Dst != NoValue && Regs[T.Dst].Writers == 1)
      T.Flags |= NoEmitFlag;
  }

  uint64_t addBranchInfo(const Instruction &Br, uint32_t BlockId) {
    CondBrInfo Info;
    Info.Merge = Br.MergeBlock == NoBlock ? UINT32_MAX : Br.MergeBlock;
    Info.PushBlock = BlockId;
    Info.TrueBlock = Br.Aux;
    Info.FalseBlock = Br.Aux2;
    TF.Branches.push_back(Info);
    return TF.Branches.size() - 1;
  }

  void lowerOne(const Instruction &I, uint32_t BlockId) {
    TapeInst T;
    T.Op = tapeOp(I.Op);
    T.SubOp = tapeOp(I.Op);
    T.Flags = breakFlag(I);
    switch (I.Op) {
    case Opcode::ConstInt:
      T.Dst = I.Result;
      T.Imm = static_cast<uint64_t>(I.IntImm);
      markNoEmit(T);
      break;
    case Opcode::ConstFloat:
      T.Dst = I.Result;
      T.Imm = std::bit_cast<uint64_t>(I.FloatImm);
      markNoEmit(T);
      break;
    case Opcode::GlobalAddr:
      T.Dst = I.Result;
      T.Imm = GlobalBase[I.Aux];
      markNoEmit(T);
      break;
    case Opcode::FrameAddr:
      T.Dst = I.Result;
      T.Imm = FrameOffset[I.Aux];
      markNoEmit(T);
      break;
    case Opcode::Load:
      T.Dst = I.Result;
      T.A = I.A;
      T.X = I.Line;
      break;
    case Opcode::Store:
      T.A = I.A;
      T.B = I.B;
      T.X = I.Line;
      break;
    case Opcode::RegionEnter:
    case Opcode::RegionExit:
      T.Imm = I.Aux;
      break;
    case Opcode::Call: {
      std::span<const ValueId> Args = F.callArgs(I);
      T.Dst = I.Result;
      T.Imm = I.Aux;
      T.X = Args.empty()
                ? 0
                : static_cast<uint32_t>(Args.data() - F.CallArgs.data());
      T.Y = static_cast<uint32_t>(Args.size());
      break;
    }
    case Opcode::Ret:
      T.A = I.A;
      break;
    case Opcode::Br:
      T.Y = I.Aux; // Target block id; X patched to its tape index.
      break;
    case Opcode::CondBr:
      T.A = I.A;
      T.Imm = addBranchInfo(I, BlockId);
      break;
    default:
      // Arithmetic / compares / logic / casts / Move / PtrAdd.
      T.Dst = I.Result;
      T.A = I.A;
      T.B = I.B;
      break;
    }
    TF.Code.push_back(T);
  }

  void patchTargets() {
    for (TapeInst &T : TF.Code) {
      if (T.Op == tapeOp(Opcode::Br)) {
        T.X = BlockStart[T.Y];
      } else if (T.Op == tapeOp(Opcode::CondBr) || T.Op == TapeCmpBr) {
        const CondBrInfo &Info = TF.Branches[T.Imm];
        T.X = BlockStart[Info.TrueBlock];
        T.Y = BlockStart[Info.FalseBlock];
      }
    }
  }
};

} // namespace

ModuleTape::ModuleTape(const Module &M,
                       const std::vector<uint64_t> &GlobalBase) {
  Funcs.reserve(M.Functions.size());
  DecodeScratch Scratch;
  for (const Function &F : M.Functions) {
    TapeFunction &TF =
        Funcs.emplace_back(FunctionDecoder(F, GlobalBase, Scratch).decode());
    // The leaf pool is final: point each shape at its leaves.
    const TreeLeaf *L = TF.Leaves.data();
    for (TreeShape &S : TF.Shapes) {
      S.Leaves = L;
      L += S.NumLeaves;
    }
  }
}

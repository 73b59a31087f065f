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

/// Node index sentinels for TreeNode.
constexpr uint32_t NoNode = UINT32_MAX;
constexpr uint32_t Conflict = UINT32_MAX - 1; ///< Readers in two DAGs.

/// One tree op of the block being planned.
struct TreeNode {
  uint32_t Tape = 0; ///< Its instruction's index in TapeFunction::Code.
  uint32_t Pos = 0;  ///< Its position in the block's event order.
  uint32_t Barriers = 0; ///< Calls and region markers before it in the block.
  ValueId Dst = NoValue, A = NoValue, B = NoValue;
  /// The node of this block whose value operand A / B reads; NoNode when
  /// the value comes from outside the block or from another instruction.
  uint32_t ProdA = NoNode, ProdB = NoNode;
  uint32_t Lat = 0;
  /// A plain tree op whose value dies in the block and is read only by
  /// tree ops of the block (false once the forward check fails it).
  bool MayFold = false;
  // Per planning round (joinRoots):
  uint32_t Root = NoNode;  ///< The root its value folds into (itself if one).
  uint32_t Joins = NoNode; ///< Its readers' common root so far, or Conflict.
  uint32_t ReaderDist = 0; ///< Longest reader-to-root latency.
  uint32_t Dist = 0;       ///< Its own op-to-root latency, inclusive.
  /// The next node of its root's DAG; a root heads its own list.
  uint32_t NextMember = NoNode;
};

/// A register write in a block's event order, for the forward check.
struct RegWrite {
  uint32_t Pos = 0;
  ValueId Reg = NoValue;
  uint32_t Node = NoNode; ///< The tree op writing it, if one.
};

/// What the decoder knows about one register of the function at hand.
struct RegState {
  uint32_t Writers = 0;     ///< Static writers.
  bool ConstWriter = false; ///< Its (last) writer is const-class.
  /// No block reads it before writing it, so no value of it outlives its
  /// block.
  bool Local = true;
  uint32_t WrittenIn = 0; ///< 1 + the block it was last written in (prepass).
  /// The node of the block being planned whose value it holds, or NoNode.
  uint32_t Def = NoNode;
  /// Clock reading of its latest row write (FunctionDecoder::leavesHold).
  uint32_t RowWrite = 0;
  /// 1 + index into TapeFunction::Leaves of its entry in the shape being
  /// recorded (leaf deduplication).
  uint32_t LeafAt = 0;
};

/// Planning state shared by the functions of one module, so decoding
/// allocates it once.
struct DecodeScratch {
  std::vector<RegState> Regs;
  std::vector<TreeNode> Nodes;
  std::vector<RegWrite> Writes;
};

/// Lowers one function. Branch targets are recorded as block ids first and
/// patched to tape indices once every block's start offset is known.
class FunctionDecoder {
public:
  FunctionDecoder(const Function &F, const std::vector<uint64_t> &GlobalBase,
                  DecodeScratch &Scratch)
      : F(F), GlobalBase(GlobalBase), Regs(Scratch.Regs),
        Nodes(Scratch.Nodes), Writes(Scratch.Writes) {}

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
    // which registers never carry a value across a block boundary, for
    // expression DAGs. Fusion only hoists operand-free constants that
    // define nothing the fused pattern reads, so reads and writes keep this
    // order on the tape.
    Regs.assign(F.NumValues, RegState());
    auto Read = [&](ValueId V, uint32_t B) {
      if (V < F.NumValues && Regs[V].WrittenIn != B + 1)
        Regs[V].Local = false;
    };
    for (uint32_t B = 0; B < F.Blocks.size(); ++B)
      for (const Instruction &I : F.Blocks[B].Insts) {
        Read(I.A, B);
        Read(I.B, B);
        for (ValueId V : F.callArgs(I))
          Read(V, B);
        if (I.Result != NoValue && I.Result < F.NumValues) {
          RegState &R = Regs[I.Result];
          ++R.Writers;
          R.ConstWriter = isConstClass(I.Op);
          R.WrittenIn = B + 1;
        }
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
  std::vector<TreeNode> &Nodes;  ///< The block's tree ops, in event order.
  std::vector<RegWrite> &Writes; ///< The block's register writes, in order.
  /// Advances past every position of a block on each forward check, so a
  /// RegState::RowWrite from an earlier check or block reads as older than
  /// every node of the current one.
  uint32_t Clock = 1;

  void lowerBlock(uint32_t BlockId) {
    const InstList &Insts = F.Blocks[BlockId].Insts;
    for (size_t I = 0; I < Insts.size(); ++I) {
      if (tryFuseLoadOpStore(Insts, I, BlockId) ||
          tryFuseCmpBr(Insts, I, BlockId) || tryFuseUpdate(Insts, I))
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
  bool tryFuseLoadOpStore(const InstList &Insts, size_t &I,
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
  bool tryFuseCmpBr(const InstList &Insts, size_t &I,
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

  /// r = op a, b; v = move r, where op is an induction/reduction update
  /// =>  one superinstruction. Its Update event runs both hooks, so r's row
  /// is still written and nothing else about the pair may change.
  bool tryFuseUpdate(const InstList &Insts, size_t &I) {
    if (I + 1 >= Insts.size())
      return false;
    const Instruction &Op = Insts[I];
    const Instruction &Mv = Insts[I + 1];
    if (!isBinaryOp(Op.Op) || !breakFlag(Op) || Mv.Op != Opcode::Move ||
        Mv.A != Op.Result)
      return false;
    TapeInst T;
    T.Op = TapeUpdate;
    T.SubOp = tapeOp(Op.Op);
    T.Flags = BreakDepFlag | (breakFlag(Mv) ? MoveBreakDepFlag : 0);
    T.Dst = Op.Result;
    T.A = Op.A;
    T.B = Op.B;
    T.X = Mv.Result;
    TF.Code.push_back(T);
    ++TF.FusedUpdates;
    I += 1;
    return true;
  }

  /// Plans the expression DAGs of the block whose tape code starts at
  /// \p Begin, in event order (after fusion, so hoisted constants and the
  /// load inside a TapeLoadOpStore are seen where they execute), and sets
  /// the tree flags and shapes of its instructions. joinRoots folds each
  /// op whose readers share a root into it; leavesHold then checks that
  /// every folded op's leaves still hold at the root, and an op it fails
  /// roots its own DAG in the next round.
  void planTrees(uint32_t Begin) {
    collectNodes(Begin);
    bool Folded = false;
    do
      Folded = joinRoots();
    while (Folded && !leavesHold());
    if (!Folded)
      return; // Every tree op keeps its Op event.
    for (uint32_t N = 0; N < Nodes.size(); ++N) {
      const TreeNode &Node = Nodes[N];
      TapeInst &T = TF.Code[Node.Tape];
      if (Node.Root != N) {
        T.Flags |= InnerFlag;
        ++TF.InnerOps;
      } else if (Node.NextMember != NoNode) {
        T.Flags |= TreeRootFlag;
        uint32_t Shape = addShape(N);
        if (T.Op == TapeCmpBr)
          TF.Branches[T.Imm].Shape = Shape;
        else
          T.Imm = Shape;
      }
    }
  }

  /// Records the block's tree ops and register writes in event order: for
  /// each tree op, the ops of the block whose values it reads, and whether
  /// its own value may fold (a plain tree op whose value only tree ops of
  /// the block read, and which no reader after the block can see).
  void collectNodes(uint32_t Begin) {
    Nodes.clear();
    Writes.clear();
    uint32_t Pos = 0, Barriers = 0;
    auto Read = [&](ValueId V) { // By anything but a tree op.
      if (V != NoValue && Regs[V].Def != NoNode)
        Nodes[Regs[V].Def].MayFold = false;
    };
    auto Write = [&](ValueId V, uint32_t Node) {
      RegState &R = Regs[V];
      R.Def = Node;
      if (!(R.Writers == 1 && R.ConstWriter)) // Never a leaf (readsRow).
        Writes.push_back({Pos, V, Node});
    };
    auto AddNode = [&](uint32_t K, uint8_t Op, ValueId Dst, ValueId A,
                       ValueId B, bool Plain) {
      TreeNode N;
      N.Tape = K;
      N.Pos = Pos;
      N.Barriers = Barriers;
      N.Dst = Dst;
      N.A = A;
      N.B = B;
      N.ProdA = A == NoValue ? NoNode : Regs[A].Def;
      N.ProdB = B == NoValue ? NoNode : Regs[B].Def;
      N.Lat = latencyOf(static_cast<Opcode>(Op));
      N.MayFold = Plain;
      Nodes.push_back(N);
      Write(Dst, static_cast<uint32_t>(Nodes.size() - 1));
    };
    for (uint32_t K = Begin; K < TF.Code.size(); ++K, ++Pos) {
      const TapeInst &T = TF.Code[K];
      if (T.Op == TapeLoadOpStore || T.Op == TapeCmpBr) {
        // A fused op's value is read by its store or branch: never inner.
        const bool Lso = T.Op == TapeLoadOpStore;
        if (Lso) {
          Read(T.A);
          Write(T.Dst, NoNode); // The load, then the op, then the store.
          ++Pos;
        }
        const ValueId Dst = Lso ? T.X : T.Dst, A = Lso ? T.Dst : T.A;
        if (isTreeOp(T.SubOp, T.Flags)) {
          AddNode(K, T.SubOp, Dst, A, T.B, /*Plain=*/false);
        } else {
          Read(A);
          Read(T.B);
          Write(Dst, NoNode);
        }
        if (Lso)
          Read(T.A);
        Read(Dst);
      } else if (isTreeOp(T.Op, T.Flags)) {
        AddNode(K, T.Op, T.Dst, T.A, T.B, /*Plain=*/true);
      } else if (T.Op == TapeUpdate) {
        Read(T.A); // The op, then the move, which reads only its value.
        Read(T.B);
        Write(T.Dst, NoNode);
        Write(T.X, NoNode);
      } else if (T.Op == tapeOp(Opcode::Call) ||
                 T.Op == tapeOp(Opcode::RegionEnter) ||
                 T.Op == tapeOp(Opcode::RegionExit)) {
        // Frames, instance ids and the control-dependence cache change.
        ++Barriers;
        if (T.Op == tapeOp(Opcode::Call))
          for (uint32_t Arg = 0; Arg < T.Y; ++Arg)
            Read(F.CallArgs[T.X + Arg]);
        if (T.Dst != NoValue)
          Write(T.Dst, NoNode);
      } else {
        Read(T.A);
        Read(T.B);
        if (T.Dst != NoValue)
          Write(T.Dst, NoNode);
      }
    }
    // A value the block overwrote dies in it. One still in its register
    // at the block's end dies there only if no block reads that register
    // before writing it.
    for (uint32_t N = 0; N < Nodes.size(); ++N) {
      uint32_t &Def = Regs[Nodes[N].Dst].Def;
      if (Def == N) {
        Nodes[N].MayFold &= Regs[Nodes[N].Dst].Local;
        Def = NoNode;
      }
    }
  }

  /// One backward round: an op that may fold joins the root its readers
  /// share, with no Call or region marker in between; any other op roots
  /// its own DAG. Readers come later in the block, so each op's readers
  /// have set its Joins and ReaderDist by the time it is planned. Returns
  /// whether any op folded.
  bool joinRoots() {
    bool Folded = false;
    for (uint32_t N = static_cast<uint32_t>(Nodes.size()); N-- > 0;) {
      TreeNode &Node = Nodes[N];
      const uint32_t R = Node.Joins;
      if (Node.MayFold && R < Conflict &&
          Nodes[R].Barriers == Node.Barriers) {
        Folded = true;
        Node.Root = R;
        Node.Dist = Node.Lat + Node.ReaderDist;
        Node.NextMember = Nodes[R].NextMember;
        Nodes[R].NextMember = N;
      } else {
        Node.Root = N;
        Node.Dist = Node.Lat;
        Node.NextMember = NoNode;
      }
      Node.Joins = NoNode; // Ready for the next round.
      Node.ReaderDist = 0;
      for (uint32_t P : {Node.ProdA, Node.ProdB}) {
        if (P == NoNode)
          continue;
        TreeNode &Prod = Nodes[P];
        Prod.Joins = Prod.Joins == NoNode || Prod.Joins == Node.Root
                         ? Node.Root
                         : Conflict;
        Prod.ReaderDist = std::max(Prod.ReaderDist, Node.Dist);
      }
    }
    return Folded;
  }

  /// The forward check: at each root, no row an inner op of its DAG read
  /// may have been written since that op read it, because the root reads
  /// each leaf for all its readers. Every register write but an inner op's
  /// writes its row. An op that fails stops folding; returns whether none
  /// failed.
  bool leavesHold() {
    const uint32_t Base = Clock;
    bool Hold = true;
    for (const RegWrite &W : Writes) {
      if (W.Node != NoNode) {
        if (Nodes[W.Node].Root != W.Node)
          continue; // Inner: no row write.
        for (uint32_t M = Nodes[W.Node].NextMember; M != NoNode;
             M = Nodes[M].NextMember) {
          TreeNode &Op = Nodes[M];
          const uint32_t At = Base + Op.Pos;
          if ((readsRow(Op.A, Op.ProdA) && Regs[Op.A].RowWrite > At) ||
              (readsRow(Op.B, Op.ProdB) && Regs[Op.B].RowWrite > At)) {
            Op.MayFold = false;
            Hold = false;
          }
        }
      }
      Regs[W.Reg].RowWrite = Base + W.Pos;
    }
    Clock = Base + (Writes.empty() ? 0 : Writes.back().Pos) + 1;
    return Hold;
  }

  /// Whether an op reads operand \p V, computed by node \p Prod, from its
  /// register's row (a leaf): not from an inner op of its own DAG, and not
  /// from a single-writer constant, which always reads as time 0.
  bool readsRow(ValueId V, uint32_t Prod) const {
    return V != NoValue && (Prod == NoNode || Nodes[Prod].Root == Prod) &&
           !(Regs[V].Writers == 1 && Regs[V].ConstWriter);
  }

  /// Appends root \p R's shape: each op of its DAG once, and one leaf per
  /// register at its longest reader-to-root distance.
  uint32_t addShape(uint32_t R) {
    const uint32_t First = static_cast<uint32_t>(TF.Leaves.size());
    TreeShape S;
    for (uint32_t M = R; M != NoNode; M = Nodes[M].NextMember) {
      const TreeNode &Op = Nodes[M];
      ++S.Ops;
      S.Work += Op.Lat;
      S.CdDist = std::max(S.CdDist, Op.Dist);
      for (auto [V, P] :
           {std::pair(Op.A, Op.ProdA), std::pair(Op.B, Op.ProdB)}) {
        if (!readsRow(V, P))
          continue;
        uint32_t &At = Regs[V].LeafAt;
        if (At > First) {
          TF.Leaves[At - 1].Dist = std::max(TF.Leaves[At - 1].Dist, Op.Dist);
          continue;
        }
        TF.Leaves.push_back({V, Op.Dist});
        At = static_cast<uint32_t>(TF.Leaves.size());
      }
    }
    S.NumLeaves = static_cast<uint32_t>(TF.Leaves.size()) - First;
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

//===- rt/KremlinRuntime.cpp ----------------------------------------------===//

#include "rt/KremlinRuntime.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace kremlin;

namespace {
/// All-zero control-dependence row for BreakDep operations: lets the onOp
/// slot loop read through one unconditional pointer.
const Time ZeroTimes[MaxTrackedLevels] = {};
} // namespace

KremlinRuntime::KremlinRuntime(const KremlinConfig &Cfg,
                               RegionSummarySink &Sink)
    : Cfg(Cfg), Sink(Sink),
      Memory(Cfg.NumLevels, ShadowMemory::DefaultSegmentWords,
             Cfg.MaxShadowBytes) {
  assert(Cfg.NumLevels >= 1 && Cfg.NumLevels <= MaxTrackedLevels &&
         "NumLevels outside the supported window");
  CurInstance.assign(Cfg.NumLevels, 0);
  LevelMaxTimes.assign(Cfg.NumLevels, 0);
}

void KremlinRuntime::enterRegion(RegionId R) {
  unsigned Level = depth();
  // Depth guardrail: record the error but still push the region so every
  // exitRegion stays matched while the interpreter unwinds to its next
  // failure poll. The first trip sticks (see status()).
  if (Cfg.MaxRegionDepth != 0 && Level >= Cfg.MaxRegionDepth && !failed())
    Err = Status::error(
        ErrorCode::ResourceExhausted,
        formatString("region nesting depth cap (%u) exceeded",
                     Cfg.MaxRegionDepth));
  uint64_t Instance = ++NextInstance;
  if (Level >= Cfg.MinLevel && Level - Cfg.MinLevel < Cfg.NumLevels) {
    // Retag the slot: every shadow cell written by older same-depth regions
    // now reads as time 0. The fresh region starts with an empty critical
    // path.
    CurInstance[Level - Cfg.MinLevel] = Instance;
    LevelMaxTimes[Level - Cfg.MinLevel] = 0;
    ++Stats.LevelRetags;
  }
  ActiveRegion A;
  A.Static = R;
  A.Instance = Instance;
  Regions.push_back(std::move(A));
  ++Stats.DynRegionEntries;
  Stats.PeakRegionDepth = std::max(Stats.PeakRegionDepth, depth());
  TopWork = &Regions.back().Work;
  SlotsActive = activeSlots();
}

void KremlinRuntime::exitRegion(RegionId R) {
  assert(!Regions.empty() && "region exit with empty region stack");
  ActiveRegion Top = std::move(Regions.back());
  Regions.pop_back();
  assert(Top.Static == R && "mismatched region exit");
  (void)R;

  unsigned Level = depth(); // Level the popped region occupied.
  TopWork = Regions.empty() ? nullptr : &Regions.back().Work;
  SlotsActive = activeSlots();
  bool Tracked =
      Level >= Cfg.MinLevel && Level - Cfg.MinLevel < Cfg.NumLevels;
  // Keep the CdNow invariant: slots at or beyond SlotsActive read 0, so a
  // later region entry can reactivate this slot without a refresh.
  if (Tracked)
    CdNow[Level - Cfg.MinLevel] = 0;
  // Outside the tracked window we never measured availability times; fall
  // back to the serial assumption cp == work so summaries stay well-formed.
  Time Cp = Tracked ? LevelMaxTimes[Level - Cfg.MinLevel] : Top.Work;
  // Work is a trivial upper bound... cp can exceed work only through
  // control-dependence times carried from sibling iterations; clamp.
  if (Cp > Top.Work)
    Cp = Top.Work;

  std::sort(Top.Children.begin(), Top.Children.end());
  DynRegionSummary S;
  S.Static = Top.Static;
  S.Work = Top.Work;
  S.Cp = Cp;
  S.Children = std::move(Top.Children);
  SummaryChar C = Sink.intern(std::move(S));

  if (Regions.empty()) {
    Sink.onRootExit(C);
    return;
  }
  ActiveRegion &Parent = Regions.back();
  Parent.Work += Top.Work;
  // Linear scan: regions have few distinct child characters in practice
  // (that is exactly why the dictionary compression works).
  for (auto &[Char, Count] : Parent.Children) {
    if (Char == C) {
      ++Count;
      return;
    }
  }
  Parent.Children.emplace_back(C, 1);
}

void KremlinRuntime::pushFrame(unsigned NumRegs) {
  if (LiveFrames == Frames.size())
    Frames.emplace_back();
  Frame &F = Frames[LiveFrames++];
  F.NumRegs = NumRegs;
  // Grow-only; clearing the watermarks invalidates every recycled row at
  // once (see the Frame doc comment), so no cell is ever re-zeroed here.
  // fill_n, not memset: RowW.data() is null for a register-less function.
  size_t NeedCells = static_cast<size_t>(NumRegs) * Cfg.NumLevels;
  if (F.Cells.size() < NeedCells)
    F.Cells.resize(NeedCells);
  if (F.RowW.size() < NumRegs)
    F.RowW.resize(NumRegs);
  std::fill_n(F.RowW.data(), NumRegs, uint64_t(0));
  F.CdBase = CdMerge.size();
  FrameCells = F.Cells.data();
  FrameRowW = F.RowW.data();
  CdTop = nullptr; // The new frame has no open control scope yet.
  refreshCdNow();
}

void KremlinRuntime::popFrame() {
  assert(LiveFrames > 0 && "popFrame with no frames");
  Frame &F = Frames[LiveFrames - 1];
  // Abandon control dependences opened in this frame (early returns).
  CdMerge.resize(F.CdBase);
  CdPushBlock.resize(F.CdBase);
  CdCells.resize(CdMerge.size() * Cfg.NumLevels);
  --LiveFrames;
  if (LiveFrames > 0) {
    Frame &Top = Frames[LiveFrames - 1];
    FrameCells = Top.Cells.data();
    FrameRowW = Top.RowW.data();
  } else {
    FrameCells = nullptr;
    FrameRowW = nullptr;
  }
  refreshCdTop();
  refreshCdNow();
}

void KremlinRuntime::copyParamFromCaller(ValueId DstParam,
                                         ValueId SrcArgInCaller) {
  assert(LiveFrames >= 2 && "no caller frame");
  Frame &Callee = Frames[LiveFrames - 1];
  Frame &Caller = Frames[LiveFrames - 2];
  // The watermark travels with the times: validity is a property of the
  // write that produced the row, not of the frame holding the copy.
  uint64_t W = Caller.RowW[SrcArgInCaller];
  Callee.RowW[DstParam] = W;
  if (W == 0)
    return; // Source row unwritten: the copy reads as 0 everywhere.
  const Time *Src =
      &Caller.Cells[static_cast<size_t>(SrcArgInCaller) * Cfg.NumLevels];
  std::copy(Src, Src + Cfg.NumLevels,
            &Callee.Cells[static_cast<size_t>(DstParam) * Cfg.NumLevels]);
}

void KremlinRuntime::copyReturnToCaller(ValueId DstInCaller,
                                        ValueId SrcInCallee) {
  assert(LiveFrames >= 2 && "no caller frame");
  Frame &Callee = Frames[LiveFrames - 1];
  Frame &Caller = Frames[LiveFrames - 2];
  uint64_t W = Callee.RowW[SrcInCallee];
  Caller.RowW[DstInCaller] = W;
  if (W == 0)
    return; // Source row unwritten: the copy reads as 0 everywhere.
  const Time *Src =
      &Callee.Cells[static_cast<size_t>(SrcInCallee) * Cfg.NumLevels];
  std::copy(Src, Src + Cfg.NumLevels,
            &Caller.Cells[static_cast<size_t>(DstInCaller) * Cfg.NumLevels]);
}

void KremlinRuntime::onCondBranch(ValueId CondReg, uint32_t MergeBlock,
                                  uint32_t PushBlock) {
  constexpr unsigned Lat = latencyOf(Opcode::CondBr);
  addWork(Lat);
  Frame &F = curFrame();
  unsigned Slots = SlotsActive;

  // Branch availability per slot: max(enclosing control dep, condition) +
  // latency. Every dynamic branch pushes its own scope: a re-executed
  // branch finds its previous scope already popped, because entering its
  // block pops it (popControlDepsAtBlock). So a counted loop whose
  // condition only reads broken induction chains does not serialize its
  // iterations, while a data-dependent condition (while (err > tol)) still
  // does: its time flows in through CondReg. The enclosing dependence is
  // the top of the stack, whose contribution CdNow already holds.
  Time NewT[MaxTrackedLevels];
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    Time T = CdNow[Slot];
    Time Tc = readRegTime(F, CondReg, Slot);
    if (Tc > T)
      T = Tc;
    NewT[Slot] = T + Lat;
  }

  CdMerge.push_back(MergeBlock);
  CdPushBlock.push_back(PushBlock);
  CdCells.resize(CdCells.size() + Cfg.NumLevels);
  size_t Base = (CdMerge.size() - 1) * Cfg.NumLevels;
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    CdCells[Base + Slot].Tag = CurInstance[Slot];
    CdCells[Base + Slot].T = NewT[Slot];
    CdNow[Slot] = NewT[Slot]; // Fresh tags: the contribution is NewT.
    if (NewT[Slot] > LM[Slot])
      LM[Slot] = NewT[Slot];
  }
  // Slots beyond the active depth keep stale tags and read as 0 (and their
  // CdNow entries are already 0 by invariant).
  CdTop = &CdCells[Base]; // resize() above may have moved the storage.
}

void KremlinRuntime::onOp(Opcode Op, ValueId Dst, ValueId A, ValueId B,
                          bool BreakDepA) {
  const unsigned Lat = latencyOf(Op);
  addWork(Lat);
  if (LiveFrames == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  const unsigned Slots = SlotsActive;
  Time *FC = FrameCells;

  // Constant materializations only exist because the IR spells immediates
  // out as instructions; in LLVM they are operands with no availability
  // time. Treat them (and address-base constants) as available at time 0,
  // independent of control dependences — otherwise a loop's control chain
  // would leak into every literal used inside the loop.
  if (Op == Opcode::ConstInt || Op == Opcode::ConstFloat ||
      Op == Opcode::GlobalAddr || Op == Opcode::FrameAddr) {
    // "Available at time 0" and "unwritten row" are indistinguishable to
    // every reader, so the row write collapses to an O(1) invalidation:
    // watermark 0 predates every instance id.
    FrameRowW[Dst] = 0;
    return;
  }

  // Operand watermarks resolved before the destination's is bumped (Dst
  // may alias A or B); the slot loop is then straight-line maxing over
  // contiguous times. Unused operands point at an all-zero row under a
  // zero watermark, keeping the loop free of null checks. Induction/
  // reduction updates (BreakDepA) ignore both the old value and the
  // control dependence: the iteration-existence test of a counted loop is
  // exactly the easy-to-break dependence the rule removes.
  uint64_t *RW = FrameRowW;
  const Time *Cd = BreakDepA ? ZeroTimes : CdNow;
  bool UseA = A != NoValue && !BreakDepA;
  const uint64_t WA = UseA ? RW[A] : 0;
  const Time *TA = UseA ? FC + static_cast<size_t>(A) * NL : ZeroTimes;
  const uint64_t WB = B != NoValue ? RW[B] : 0;
  const Time *TB =
      B != NoValue ? FC + static_cast<size_t>(B) * NL : ZeroTimes;
  Time *TDst = nullptr;
  if (Dst != NoValue) {
    TDst = FC + static_cast<size_t>(Dst) * NL;
    RW[Dst] = NextInstance;
  }
  const uint64_t *Inst = CurInstance.data();
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    uint64_t Id = Inst[Slot];
    Time T = Cd[Slot];
    Time Ta = Id <= WA ? TA[Slot] : 0;
    T = Ta > T ? Ta : T;
    Time Tb = Id <= WB ? TB[Slot] : 0;
    T = Tb > T ? Tb : T;
    T += Lat;
    if (TDst)
      TDst[Slot] = T;
    LM[Slot] = T > LM[Slot] ? T : LM[Slot];
  }
}

void KremlinRuntime::onTree(ValueId Root, const TreeShape &S) {
  addWork(S.Work);
  if (LiveFrames == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  const unsigned Slots = SlotsActive;
  Time *FC = FrameCells;
  uint64_t *RW = FrameRowW;
  const uint64_t *Inst = CurInstance.data();

  // Every op of the tree reads the same control dependence (no control
  // event falls inside a tree), and the longest op-to-root path carries it
  // furthest. A leaf read at a slot its row is not valid for reads as 0,
  // which that path already dominates, so only valid leaves are maxed in.
  // The leaves are read before the root's watermark is bumped: the root
  // may overwrite one of its own leaves.
  Time T[MaxTrackedLevels];
  for (unsigned Slot = 0; Slot < Slots; ++Slot)
    T[Slot] = CdNow[Slot] + S.CdDist;
  for (const TreeLeaf *L = S.Leaves, *End = L + S.NumLeaves; L != End; ++L) {
    const uint64_t W = RW[L->Reg];
    if (W == 0)
      continue; // Unwritten, or reset by a constant: 0 everywhere.
    const Time *TL = FC + static_cast<size_t>(L->Reg) * NL;
    const Time D = L->Dist;
    for (unsigned Slot = 0; Slot < Slots; ++Slot) {
      Time Tl = Inst[Slot] <= W ? TL[Slot] + D : 0;
      T[Slot] = Tl > T[Slot] ? Tl : T[Slot];
    }
  }
  RW[Root] = NextInstance;
  Time *TDst = FC + static_cast<size_t>(Root) * NL;
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    TDst[Slot] = T[Slot];
    LM[Slot] = T[Slot] > LM[Slot] ? T[Slot] : LM[Slot];
  }
}

void KremlinRuntime::onLoad(ValueId Dst, ValueId AddrReg, uint64_t Addr) {
  constexpr unsigned Lat = latencyOf(Opcode::Load);
  addWork(Lat);
  ++Stats.Loads;
  const unsigned Slots = SlotsActive;
  if (Slots == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  Time *FC = FrameCells;
  // One page-table lookup shadows the word for every level; the tally
  // counts one timestamp read per active level.
  Memory.noteReads(Slots);
  const ShadowCell *MC = Memory.wordCells(Addr);
  const Time *Cd = CdNow;
  uint64_t *RW = FrameRowW;
  const uint64_t WAddr = RW[AddrReg];
  const Time *TAddr = FC + static_cast<size_t>(AddrReg) * NL;
  Time *TDst = FC + static_cast<size_t>(Dst) * NL;
  RW[Dst] = NextInstance;
  const uint64_t *Inst = CurInstance.data();
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    uint64_t Id = Inst[Slot];
    Time T = Cd[Slot];
    Time Ta = Id <= WAddr ? TAddr[Slot] : 0;
    T = Ta > T ? Ta : T;
    if (MC && MC[Slot].Tag == Id && MC[Slot].T > T)
      T = MC[Slot].T;
    T += Lat;
    TDst[Slot] = T;
    LM[Slot] = T > LM[Slot] ? T : LM[Slot];
  }
}

void KremlinRuntime::onStore(ValueId ValReg, ValueId AddrReg, uint64_t Addr) {
  constexpr unsigned Lat = latencyOf(Opcode::Store);
  addWork(Lat);
  ++Stats.Stores;
  const unsigned Slots = SlotsActive;
  if (Slots == 0)
    return;
  const unsigned NL = Cfg.NumLevels;
  Time *FC = FrameCells;
  Memory.noteWrites(Slots);
  // Allocate the page once for all slots; nullptr (budget trip / injected
  // fault) drops the shadow writes.
  ShadowCell *MC = Memory.wordCellsForWrite(Addr);
  const Time *Cd = CdNow;
  const uint64_t *RW = FrameRowW;
  const uint64_t WVal = RW[ValReg];
  const Time *TVal = FC + static_cast<size_t>(ValReg) * NL;
  const uint64_t WAddr = RW[AddrReg];
  const Time *TAddr = FC + static_cast<size_t>(AddrReg) * NL;
  const uint64_t *Inst = CurInstance.data();
  Time *LM = LevelMaxTimes.data();
  for (unsigned Slot = 0; Slot < Slots; ++Slot) {
    uint64_t Id = Inst[Slot];
    Time T = Cd[Slot];
    Time Tv = Id <= WVal ? TVal[Slot] : 0;
    T = Tv > T ? Tv : T;
    Time Ta = Id <= WAddr ? TAddr[Slot] : 0;
    T = Ta > T ? Ta : T;
    T += Lat;
    // True (flow) dependences only: the previous time at this address is
    // deliberately ignored — anti and output dependences are false
    // dependences that an ideal parallelization removes (§4.1).
    if (MC) {
      MC[Slot].Tag = Id;
      MC[Slot].T = T;
    }
    LM[Slot] = T > LM[Slot] ? T : LM[Slot];
  }
}

#if defined(__GNUC__) || defined(__clang__)
// The batch loop is the profiled execution's hot spine: inline every hook
// into it so the per-event cost is the switch dispatch plus the (cached)
// hook body, with no call overhead.
__attribute__((flatten))
#endif
void KremlinRuntime::consumeBatch(const ProfEvent *Ev, size_t N) {
  Stats.Events += N;
  for (size_t I = 0; I < N; ++I) {
    const ProfEvent &E = Ev[I];
    switch (static_cast<EvKind>(E.Kind)) {
    case EvKind::Op:
      onOp(static_cast<Opcode>(E.Opc), E.A, E.B, E.C, (E.Flags & 1) != 0);
      break;
    case EvKind::Tree:
      onTree(E.A, E.shape());
      break;
    case EvKind::Load:
      onLoad(E.A, E.B, E.Addr);
      break;
    case EvKind::Store:
      onStore(E.A, E.B, E.Addr);
      break;
    case EvKind::CondBranch:
      onCondBranch(E.A, E.B, E.C);
      break;
    case EvKind::BlockEntry:
      popControlDepsAtBlock(E.A);
      break;
    case EvKind::RegionEnter:
      enterRegion(E.A);
      break;
    case EvKind::RegionExit:
      exitRegion(E.A);
      break;
    case EvKind::PushFrame:
      pushFrame(E.A);
      break;
    case EvKind::PopFrame:
      popFrame();
      break;
    case EvKind::CopyParam:
      copyParamFromCaller(E.A, E.B);
      break;
    case EvKind::CopyReturn:
      copyReturnToCaller(E.A, E.B);
      break;
    case EvKind::ReleaseRange:
      Memory.releaseRange(E.Addr, E.words());
      break;
    }
  }
}

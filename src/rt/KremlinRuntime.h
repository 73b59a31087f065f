//===- rt/KremlinRuntime.h - The KremLib-equivalent runtime -----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation runtime (the paper's KremLib): hierarchical critical
/// path analysis driven by per-instruction hooks. For every executed
/// operation it propagates availability times at every active nesting
/// level; for every dynamic region it tracks work and critical-path length
/// and emits a summary into a RegionSummarySink on exit.
///
/// Level model: the dynamic region stack index is the nesting level. A
/// configurable depth window [MinLevel, MinLevel + NumLevels) selects which
/// levels carry shadow timestamps (the paper's command-line flag for
/// partitioned HCPA collection); regions outside the window still measure
/// work, and report cp == work (serial assumption), which keeps parent
/// summaries well-formed.
///
/// Stale-data rejection: each level slot has a current region-instance id.
/// Memory and control-dependence shadow cells are tagged by the instance
/// that wrote them and read as time 0 under a tag mismatch — the paper's
/// mechanism for safely sharing one slot among all same-depth regions.
/// Register rows use an equivalent but cheaper form: one per-row watermark
/// compared against the slot's current instance id (see Frame).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_RT_KREMLINRUNTIME_H
#define KREMLIN_RT_KREMLINRUNTIME_H

#include "ir/Instruction.h"
#include "rt/ProfEvent.h"
#include "rt/RegionSummary.h"
#include "rt/ShadowMemory.h"
#include "rt/Timestamp.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace kremlin {

/// Hard cap on the depth-window width (stack buffers size to this).
inline constexpr unsigned MaxTrackedLevels = 64;

/// Runtime configuration (the kremlin command-line knobs this reproduction
/// models).
struct KremlinConfig {
  /// First tracked nesting level (0 = the outermost function region).
  unsigned MinLevel = 0;
  /// Number of tracked levels (width of the shadow level arrays).
  unsigned NumLevels = 16;
  /// Shadow-memory byte budget; 0 = unlimited. Tripping it stops the
  /// profiled execution with a ResourceExhausted error instead of OOM.
  uint64_t MaxShadowBytes = 0;
  /// Region-nesting depth cap; 0 = unlimited. Exceeding it (runaway
  /// recursion in the profiled program) trips ResourceExhausted.
  unsigned MaxRegionDepth = 0;
};

/// Counters exposed for the overhead and compression experiments.
struct RuntimeStats {
  /// ProfEvents consumed (execute's throughput unit). An expression tree
  /// is one event however many instructions it folds.
  uint64_t Events = 0;
  uint64_t DynRegionEntries = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  /// Level-slot retags on region entry (a new instance taking over a
  /// shadow level slot — the paper's slot-reuse mechanism in action).
  uint64_t LevelRetags = 0;
  /// Deepest region nesting reached (high-water mark of depth()).
  unsigned PeakRegionDepth = 0;
};

/// The HCPA runtime. One instance profiles one program execution.
class KremlinRuntime {
public:
  KremlinRuntime(const KremlinConfig &Cfg, RegionSummarySink &Sink);

  // --- Region lifecycle -------------------------------------------------

  void enterRegion(RegionId R);
  void exitRegion(RegionId R);
  unsigned depth() const { return static_cast<unsigned>(Regions.size()); }

  // --- Call frames (shadow register tables, §4.1) -------------------------

  void pushFrame(unsigned NumRegs);
  void popFrame();
  /// Copies an argument's times from the caller frame (one below top) into
  /// a parameter register of the callee frame (top).
  void copyParamFromCaller(ValueId DstParam, ValueId SrcArgInCaller);
  /// Copies the return value's times from the callee frame (top) into a
  /// register of the caller frame (one below top).
  void copyReturnToCaller(ValueId DstInCaller, ValueId SrcInCallee);

  // --- Control dependence (§4.1) ------------------------------------------

  /// Executes a conditional branch in block \p PushBlock: accounts its
  /// work/time and pushes its control dependence. The scope of one dynamic
  /// branch ends when control reaches \p MergeBlock (the immediate
  /// post-dominator) — or returns to \p PushBlock itself, which means a new
  /// dynamic instance of the same branch is about to execute (loop back
  /// edge). Ending the scope at re-entry keeps a counted loop's iterations
  /// from serializing through the loop test once induction chains are
  /// broken, while a data-dependent test still serializes through the
  /// condition value itself.
  void onCondBranch(ValueId CondReg, uint32_t MergeBlock,
                    uint32_t PushBlock);

  /// Pops control-dependence scopes that end at \p Block. Call on every
  /// block entry.
  void popControlDepsAtBlock(uint32_t Block) {
    while (CdMerge.size() > curFrame().CdBase &&
           (CdMerge.back() == Block ||
            CdPushBlock[CdMerge.size() - 1] == Block))
      popControlDep();
  }

  // --- Instruction hooks ----------------------------------------------------

  /// Generic operation: Dst = op(A, B) with latency from \p Op. Pass
  /// NoValue for unused operands/result. \p BreakDepA ignores the data
  /// dependence on A (induction/reduction update rule).
  void onOp(Opcode Op, ValueId Dst, ValueId A, ValueId B, bool BreakDepA);

  /// A whole expression tree ending in register \p Root (see TreeShape):
  /// equivalent to onOp on each of its ops in order, but only the root's
  /// row is written, since nothing reads an inner temporary's row.
  void onTree(ValueId Root, const TreeShape &S);

  void onLoad(ValueId Dst, ValueId AddrReg, uint64_t Addr);
  void onStore(ValueId ValReg, ValueId AddrReg, uint64_t Addr);

  // --- Batched event consumption ------------------------------------------

  /// Consumes \p N events in order, dispatching each onto the hook it
  /// encodes (see EvKind). This is the narrow API the interpreter's tape
  /// engine produces into: same hooks, same order, bit-identical profiles —
  /// but the whole batch runs as one tight loop on the consumption side.
  void consumeBatch(const ProfEvent *Ev, size_t N);

  const RuntimeStats &stats() const { return Stats; }
  const KremlinConfig &config() const { return Cfg; }
  uint64_t shadowBytes() const { return Memory.allocatedBytes(); }

  /// True once a resource guardrail tripped (shadow byte budget, region
  /// depth cap, or an injected allocation fault). Cheap: two loads. The
  /// interpreter reads it after every consumed batch and aborts the
  /// execution with status() as the cause.
  bool failed() const { return !Err.ok() || !Memory.status().ok(); }
  /// The first guardrail error (ok while healthy). Later trips never
  /// replace it: the interpreter's poll lags the stream, so events past the
  /// first trip still arrive, and the reported cause must not depend on how
  /// far the producer got.
  const Status &status() const { return Err.ok() ? Memory.status() : Err; }
  /// Read access to the shadow memory (telemetry flush, tests).
  const ShadowMemory &shadowMemory() const { return Memory; }


private:
  /// One active dynamic region (a region-stack entry). Its running
  /// critical-path max lives in LevelMaxTimes[its slot], not here: the hooks
  /// update every active slot per instruction, and a dense per-slot array
  /// turns that into a streaming update instead of a strided walk over this
  /// (fat) struct.
  struct ActiveRegion {
    RegionId Static = NoRegion;
    uint64_t Instance = 0;
    uint64_t Work = 0;
    /// Accumulated (child character, count); sorted at exit.
    std::vector<std::pair<SummaryChar, uint64_t>> Children;
  };

  /// One shadow register frame. Register rows carry a single watermark
  /// instead of per-slot instance tags: RowW[r] is the value NextInstance
  /// had when row r was last written (0 = never written this frame use),
  /// and slot s of the row is valid iff CurInstance[s] <= RowW[r].
  ///
  /// Why that one comparison is exact: instance ids come from one monotone
  /// counter, so ids issued after the write are strictly greater than W.
  ///  * A slot retagged after the write (its region exited/re-entered)
  ///    carries a fresher id than W — invalid, reads 0. Correct: the write
  ///    belonged to a dead instance.
  ///  * A slot that was INACTIVE at the write (deeper nesting entered
  ///    later) also carries a fresher id — so the garbage Cells beyond the
  ///    slots the write actually covered are provably unreachable, which
  ///    is what lets pushFrame recycle rows with a NumRegs x 8-byte
  ///    watermark clear instead of a NumRegs x NumLevels x 16-byte
  ///    cell fill, and lets rows drop tags entirely (half the traffic the
  ///    per-instruction hooks move).
  ///  * A slot active and un-retagged since the write has its id <= W —
  ///    valid, reads the written time.
  struct Frame {
    std::vector<Time> Cells;    ///< NumRegs x NumLevels availability times.
    std::vector<uint64_t> RowW; ///< Per-row write watermark.
    unsigned NumRegs = 0;
    size_t CdBase = 0; ///< Control-dep stack watermark at frame entry.
  };

  KremlinConfig Cfg;
  RegionSummarySink &Sink;
  ShadowMemory Memory;
  RuntimeStats Stats;
  Status Err;

  std::vector<ActiveRegion> Regions;
  /// Frame pool: entries [0, LiveFrames) are live; popped frames keep their
  /// Cells storage so call-heavy programs stop paying one allocation per
  /// call. Recycled cells are never re-zeroed: clearing the row watermarks
  /// invalidates every row at once (see Frame).
  std::vector<Frame> Frames;
  size_t LiveFrames = 0;
  /// Current region-instance id per level slot.
  std::vector<uint64_t> CurInstance;
  uint64_t NextInstance = 0;

  /// Control-dependence stack: one merge block + push block + NumLevels
  /// cells per entry.
  std::vector<uint32_t> CdMerge;
  std::vector<uint32_t> CdPushBlock;
  std::vector<ShadowCell> CdCells;

  // --- Hot-path caches ----------------------------------------------------
  // The per-instruction hooks run tens of millions of times per execution;
  // everything they would otherwise re-derive per call is kept here and
  // refreshed by the (rare) events that invalidate it: frame push/pop,
  // region enter/exit, control-dependence push/pop.

  /// Running critical-path max per level slot (the active regions' MaxTime,
  /// densely). Synced with the region stack at enter (slot reset to 0) and
  /// exit (read back as the popped region's cp).
  std::vector<Time> LevelMaxTimes;
  /// curFrame().Cells.data(); nullptr with no live frame.
  Time *FrameCells = nullptr;
  /// curFrame().RowW.data(), mirrored here so the hooks validate rows
  /// without touching the Frames vector.
  uint64_t *FrameRowW = nullptr;
  /// cdTopCells(), maintained incrementally.
  const ShadowCell *CdTop = nullptr;
  /// The top control dependence's contribution per slot under the CURRENT
  /// instance tags: CdNow[s] = CdTop[s].T if its tag matches, else 0.
  /// Shadow cells only change meaning at control events (branch push/pop,
  /// frame push/pop, region enter/exit) — all of them rare next to the
  /// tens of millions of onOp calls that read this — so the tag check is
  /// hoisted out of the per-instruction slot loops. Invariant: slots at or
  /// beyond SlotsActive are always 0, so a region entry activating a new
  /// slot needs no refresh.
  Time CdNow[MaxTrackedLevels] = {};
  /// &Regions.back().Work; nullptr with an empty region stack.
  uint64_t *TopWork = nullptr;
  /// activeSlots(), maintained at region enter/exit.
  unsigned SlotsActive = 0;

  void refreshCdTop() {
    CdTop = (LiveFrames > 0 &&
             CdMerge.size() > Frames[LiveFrames - 1].CdBase)
                ? &CdCells[(CdMerge.size() - 1) * Cfg.NumLevels]
                : nullptr;
  }

  void refreshCdNow() {
    unsigned Slots = SlotsActive;
    if (CdTop)
      for (unsigned Slot = 0; Slot < Slots; ++Slot)
        CdNow[Slot] =
            CdTop[Slot].Tag == CurInstance[Slot] ? CdTop[Slot].T : 0;
    else
      Slots = 0;
    for (unsigned Slot = Slots; Slot < Cfg.NumLevels; ++Slot)
      CdNow[Slot] = 0;
  }

  Frame &curFrame() {
    assert(LiveFrames > 0 && "no active frame");
    return Frames[LiveFrames - 1];
  }
  const Frame &curFrame() const {
    assert(LiveFrames > 0 && "no active frame");
    return Frames[LiveFrames - 1];
  }

  /// Number of level slots active right now: levels [MinLevel, depth)
  /// clipped to the window.
  unsigned activeSlots() const {
    unsigned Depth = depth();
    if (Depth <= Cfg.MinLevel)
      return 0;
    unsigned Active = Depth - Cfg.MinLevel;
    return Active < Cfg.NumLevels ? Active : Cfg.NumLevels;
  }

  /// Availability time of register \p Reg at \p Slot in frame \p F (the
  /// watermark check from the Frame doc comment). Cold-path helper; the
  /// hooks hoist the row pointer and watermark out of their slot loops.
  Time readRegTime(const Frame &F, ValueId Reg, unsigned Slot) const {
    return CurInstance[Slot] <= F.RowW[Reg]
               ? F.Cells[static_cast<size_t>(Reg) * Cfg.NumLevels + Slot]
               : 0;
  }

  void popControlDep() {
    CdMerge.pop_back();
    CdPushBlock.pop_back();
    CdCells.resize(CdCells.size() - Cfg.NumLevels);
    refreshCdTop();
    refreshCdNow();
  }

  void addWork(uint64_t Lat) {
    if (TopWork)
      *TopWork += Lat;
  }
};

} // namespace kremlin

#endif // KREMLIN_RT_KREMLINRUNTIME_H

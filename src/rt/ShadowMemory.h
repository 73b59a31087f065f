//===- rt/ShadowMemory.h - Hierarchical shadow memory -----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-level shadow memory of paper §4.1-4.2. Every tracked word of
/// program memory carries a fixed-size array of per-nesting-level shadow
/// cells; each cell holds an availability time plus the region-instance tag
/// that wrote it. Reading a cell whose tag does not match the current
/// region instance at that level yields time 0 ("discarding the data if
/// there is a mismatch and assuming time 0 instead") — this is how one slot
/// is safely reused by the many same-depth regions of the program.
///
/// Storage follows the original Kremlin runtime's idioms: a two-level page
/// table (directory of lazily allocated second-level tables, which point at
/// fixed-size cell pages) with all sizes powers of two so every lookup is
/// shift+mask, and a slab/pool allocator underneath — pages are carved out
/// of slabs and recycled through a free list on releaseRange(). Recycled
/// pages are zeroed before reuse: tag 0 never matches a live region
/// instance, so a zero page is indistinguishable from fresh memory.
///
/// The one access path is wordCells() / wordCellsForWrite(): one page
/// lookup returns the whole NumLevels cell array for a word, so a load or
/// store touches the table once instead of once per nesting level. The
/// caller tallies its per-level timestamp reads and writes with
/// noteReads() / noteWrites().
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_RT_SHADOWMEMORY_H
#define KREMLIN_RT_SHADOWMEMORY_H

#include "rt/Timestamp.h"
#include "support/Status.h"

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

namespace kremlin {

/// One (time, writer-instance-tag) shadow cell.
struct ShadowCell {
  uint64_t Tag = 0;
  Time T = 0;
};

/// Two-level, lazily allocated, pool-backed shadow memory over word
/// addresses.
class ShadowMemory {
public:
  /// \p NumLevels is the size of the per-word level array (the depth window
  /// width); \p SegmentWords is the page size of the lazy second level,
  /// rounded up to a power of two so the page lookup is shift+mask.
  /// \p ByteBudget caps total shadow bytes (0 = unlimited): the first
  /// allocation that would exceed it records a ResourceExhausted status and
  /// later writes to unallocated pages become no-ops.
  explicit ShadowMemory(unsigned NumLevels,
                        uint64_t SegmentWords = DefaultSegmentWords,
                        uint64_t ByteBudget = 0);

  /// The page size the runtime uses, in words.
  static constexpr uint64_t DefaultSegmentWords = 4096;

  ShadowMemory(const ShadowMemory &) = delete;
  ShadowMemory &operator=(const ShadowMemory &) = delete;

  /// Hot path: the NumLevels-cell array shadowing word \p Addr, or nullptr
  /// when its page was never allocated (reads as time 0 everywhere).
  const ShadowCell *wordCells(uint64_t Addr) const {
    uint64_t Page = Addr >> PageShift;
    uint64_t Hi = Page >> DirBits;
    if (Hi >= Dir.size() || !Dir[Hi])
      return nullptr;
    ShadowCell *P = Dir[Hi]->Pages[Page & DirMask];
    if (!P)
      return nullptr;
    return P + (Addr & PageMask) * NumLevels;
  }

  /// Hot path: like wordCells() but allocates the page on first touch.
  /// Returns nullptr when allocation was refused (budget trip or injected
  /// fault) — the caller drops the write, exactly like the pre-page-table
  /// behaviour.
  ShadowCell *wordCellsForWrite(uint64_t Addr) {
    uint64_t Page = Addr >> PageShift;
    uint64_t Hi = Page >> DirBits;
    ShadowCell *P = (Hi < Dir.size() && Dir[Hi])
                        ? Dir[Hi]->Pages[Page & DirMask]
                        : nullptr;
    if (!P) {
      P = allocatePage(Page);
      if (!P)
        return nullptr;
    }
    return P + (Addr & PageMask) * NumLevels;
  }

  /// Tallies \p N timestamp reads or writes: the runtime counts one per
  /// active level of a load or store, which looks its page up once.
  void noteReads(uint64_t N) const { Reads += N; }
  void noteWrites(uint64_t N) { Writes += N; }

  /// Returns the pages covering [\p Addr, \p Addr + \p Words) to the free
  /// pool: the free()-driven reclamation hook of the paper. Partially
  /// covered pages are kept, with the released words' cells zeroed.
  void releaseRange(uint64_t Addr, uint64_t Words);

  uint64_t segmentWords() const { return PageWords; }
  uint64_t allocatedSegments() const { return AllocatedPages; }

  /// Lifetime tallies for self-telemetry (timestamp read/write volume and
  /// free()-driven reclamation). Plain members — one ShadowMemory is only
  /// ever touched by one thread — flushed into the process-wide telemetry
  /// registry by the driver after a profiled execution.
  uint64_t timestampReads() const { return Reads; }
  uint64_t timestampWrites() const { return Writes; }
  uint64_t releasedSegments() const { return ReleasedPages; }

  /// Shadow bytes currently live (for overhead reporting and the byte
  /// budget). Counts pages handed out, not slab slack.
  uint64_t allocatedBytes() const { return AllocatedPages * pageBytes(); }
  /// High-water mark of allocatedBytes() over this shadow memory's life.
  uint64_t peakBytes() const { return PeakPages * pageBytes(); }
  /// Configured byte budget (0 = unlimited).
  uint64_t byteBudget() const { return ByteBudget; }

  /// Ok until the byte budget trips (or a fault-injected allocation
  /// failure); then a ResourceExhausted/FaultInjected error.
  const Status &status() const { return Err; }

private:
  /// Directory fan-out: 1 << DirBits pages per second-level table.
  static constexpr unsigned DirBits = 10;
  static constexpr uint64_t DirMask = (uint64_t(1) << DirBits) - 1;

  /// Second-level table: a fixed fan-out of page pointers. Pages are owned
  /// by the slabs; these are weak pointers.
  struct DirNode {
    ShadowCell *Pages[uint64_t(1) << DirBits] = {};
  };

  uint64_t pageBytes() const {
    return PageWords * NumLevels * sizeof(ShadowCell);
  }
  uint64_t pageCells() const { return PageWords * NumLevels; }

  /// Allocation slow path: budget + fault-injection checks, then the pool
  /// (zeroed recycled page) or the current slab. Returns the installed page
  /// or nullptr when the allocation was refused.
  ShadowCell *allocatePage(uint64_t Page);

  /// Zeroes the cells of words [\p From, \p To), which lie on one page;
  /// a page that was never allocated has nothing to clear.
  void clearWords(uint64_t From, uint64_t To);

  unsigned NumLevels;
  uint64_t PageWords; ///< Words per page (power of two).
  unsigned PageShift; ///< log2(PageWords).
  uint64_t PageMask;  ///< PageWords - 1.
  uint64_t ByteBudget;
  Status Err;

  /// First level: page index >> DirBits, grown lazily.
  std::vector<std::unique_ptr<DirNode>> Dir;
  /// Releases a calloc'd slab.
  struct FreeSlab {
    void operator()(ShadowCell *Slab) const { std::free(Slab); }
  };
  /// Slabs owning the page storage; pages are carved off SlabCur.
  std::vector<std::unique_ptr<ShadowCell[], FreeSlab>> Slabs;
  ShadowCell *SlabCur = nullptr;
  uint64_t SlabPagesLeft = 0;
  /// Recycled pages, zeroed on reuse.
  std::vector<ShadowCell *> FreePages;

  uint64_t AllocatedPages = 0;
  uint64_t PeakPages = 0;
  mutable uint64_t Reads = 0; ///< noteReads() is const; the tally isn't.
  uint64_t Writes = 0;
  uint64_t ReleasedPages = 0;
};

} // namespace kremlin

#endif // KREMLIN_RT_SHADOWMEMORY_H

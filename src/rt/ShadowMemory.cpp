//===- rt/ShadowMemory.cpp ------------------------------------------------===//

#include "rt/ShadowMemory.h"

#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <new>

using namespace kremlin;

namespace {

/// Smallest power of two >= \p V (V >= 1).
uint64_t roundUpPow2(uint64_t V) {
  uint64_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

unsigned log2Exact(uint64_t Pow2) {
  unsigned S = 0;
  while ((uint64_t(1) << S) != Pow2)
    ++S;
  return S;
}

/// Slab granularity: carve pages out of ~1 MiB slabs so small-page
/// configurations (tests, narrow depth windows) don't pay one malloc per
/// page, while the default 1 MiB page degenerates to one page per slab.
constexpr uint64_t SlabTargetBytes = uint64_t(1) << 20;

} // namespace

ShadowMemory::ShadowMemory(unsigned NumLevels, uint64_t SegmentWords,
                           uint64_t ByteBudget)
    : NumLevels(NumLevels), PageWords(roundUpPow2(SegmentWords ? SegmentWords
                                                              : 1)),
      PageShift(log2Exact(PageWords)), PageMask(PageWords - 1),
      ByteBudget(ByteBudget) {}

ShadowCell *ShadowMemory::allocatePage(uint64_t Page) {
  if (!Err.ok())
    return nullptr;
  uint64_t PageBytes = pageBytes();
  if (ByteBudget != 0 && allocatedBytes() + PageBytes > ByteBudget) {
    Err = Status::error(
        ErrorCode::ResourceExhausted,
        formatString("shadow-memory byte budget (%s) exceeded: %llu segments "
                     "of %s each already live",
                     formatBytes(ByteBudget).c_str(),
                     static_cast<unsigned long long>(AllocatedPages),
                     formatBytes(PageBytes).c_str()));
    return nullptr;
  }
  if (fault::enabled() && fault::shouldFail(fault::Site::Alloc)) {
    Err = Status::error(ErrorCode::FaultInjected,
                        "shadow-segment allocation failed (KREMLIN_FAULT=" +
                            fault::activeSpec() + ")");
    return nullptr;
  }

  ShadowCell *P;
  if (!FreePages.empty()) {
    // Pool hit: recycle a released page. Zeroing restores the "fresh
    // memory" invariant — stale tags from a previous frame could otherwise
    // alias a still-live region instance.
    P = FreePages.back();
    FreePages.pop_back();
    std::fill_n(P, pageCells(), ShadowCell());
  } else {
    if (SlabPagesLeft == 0) {
      uint64_t SlabPages = SlabTargetBytes / PageBytes;
      if (SlabPages < 1)
        SlabPages = 1;
      if (ByteBudget != 0) {
        // Never let slab slack exceed the budget: cap the carve-ahead to
        // the pages the budget could still admit.
        uint64_t BudgetPages = (ByteBudget - allocatedBytes()) / PageBytes;
        if (BudgetPages < 1)
          BudgetPages = 1;
        if (SlabPages > BudgetPages)
          SlabPages = BudgetPages;
      }
      // calloc'd slab pages start zeroed. Memory fresh from the OS is not
      // written again, so a slab page costs memory only once a shadow
      // write reaches it.
      std::unique_ptr<ShadowCell[], FreeSlab> Slab(static_cast<ShadowCell *>(
          std::calloc(SlabPages * pageCells(), sizeof(ShadowCell))));
      if (!Slab)
        throw std::bad_alloc();
      Slabs.push_back(std::move(Slab));
      SlabCur = Slabs.back().get();
      SlabPagesLeft = SlabPages;
    }
    P = SlabCur;
    SlabCur += pageCells();
    --SlabPagesLeft;
  }

  uint64_t Hi = Page >> DirBits;
  if (Hi >= Dir.size())
    Dir.resize(Hi + 1);
  if (!Dir[Hi])
    Dir[Hi] = std::make_unique<DirNode>();
  Dir[Hi]->Pages[Page & DirMask] = P;
  ++AllocatedPages;
  PeakPages = std::max(PeakPages, AllocatedPages);
  return P;
}

void ShadowMemory::clearWords(uint64_t From, uint64_t To) {
  if (From >= To)
    return;
  uint64_t Page = From >> PageShift;
  uint64_t Hi = Page >> DirBits;
  if (Hi >= Dir.size() || !Dir[Hi])
    return;
  if (ShadowCell *P = Dir[Hi]->Pages[Page & DirMask])
    std::fill_n(P + (From & PageMask) * NumLevels, (To - From) * NumLevels,
                ShadowCell());
}

void ShadowMemory::releaseRange(uint64_t Addr, uint64_t Words) {
  if (Words == 0)
    return;
  const uint64_t End = Addr + Words;
  uint64_t FirstPage = (Addr + PageWords - 1) >> PageShift;
  uint64_t LastPage = End >> PageShift; // Exclusive.
  // Partially covered end pages stay allocated, but their dead words must
  // read as fresh memory: the next frame placed at these addresses would
  // otherwise inherit the dead frame's times at every region instance that
  // is still live.
  uint64_t HeadEnd = std::min(End, FirstPage << PageShift);
  clearWords(Addr, HeadEnd);
  if (HeadEnd < End)
    clearWords(std::max(HeadEnd, LastPage << PageShift), End);
  for (uint64_t Page = FirstPage; Page < LastPage; ++Page) {
    uint64_t Hi = Page >> DirBits;
    if (Hi >= Dir.size() || !Dir[Hi])
      continue;
    ShadowCell *&Slot = Dir[Hi]->Pages[Page & DirMask];
    if (Slot) {
      FreePages.push_back(Slot);
      Slot = nullptr;
      --AllocatedPages;
      ++ReleasedPages;
    }
  }
}

//===- ir/InstArena.cpp ---------------------------------------------------===//

#include "ir/InstArena.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <mutex>
#include <new>
#include <sys/mman.h>

using namespace kremlin;

namespace {

/// Chunk size: whole pages, four blocks of the largest class.
constexpr size_t ChunkBytes = size_t{64} << 10;

/// Maps \p Bytes of memory outside every malloc arena.
void *mapBytes(size_t Bytes) {
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  return P;
}

/// Chunks no arena holds. The cache never shrinks: it keeps as many chunks
/// as the arenas alive at once have taken.
class ChunkCache {
public:
  void *take() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (!Free.empty()) {
        void *C = Free.back();
        Free.pop_back();
        return C;
      }
    }
    return mapBytes(ChunkBytes);
  }

  void give(const std::vector<void *> &Chunks) noexcept {
    std::lock_guard<std::mutex> Lock(Mutex);
    try {
      Free.insert(Free.end(), Chunks.begin(), Chunks.end());
    } catch (const std::bad_alloc &) {
      // No room to keep them: they go back to the OS instead.
      for (void *C : Chunks)
        munmap(C, ChunkBytes);
    }
  }

private:
  std::mutex Mutex;
  std::vector<void *> Free;
};

/// Never destroyed, so a module destroyed during static teardown can still
/// return its chunks.
ChunkCache &chunkCache() {
  static ChunkCache *Cache = new ChunkCache;
  return *Cache;
}

/// The smallest class whose blocks hold \p Bytes.
unsigned classOf(size_t Bytes) {
  constexpr size_t Unit = InstArena::MinBlock;
  size_t Units = (std::max(Bytes, Unit) + Unit - 1) / Unit;
  return static_cast<unsigned>(std::bit_width(Units - 1));
}

} // namespace

InstArena::~InstArena() { chunkCache().give(Chunks); }

void *InstArena::do_allocate(size_t Bytes, size_t Align) {
  assert(Align <= MinBlock && "blocks are MinBlock-aligned");
  (void)Align;
  unsigned K = classOf(Bytes);
  if (K >= NumClasses)
    return mapBytes(Bytes);
  if (void *P = Free[K]) {
    Free[K] = *static_cast<void **>(P);
    return P;
  }
  const size_t Size = MinBlock << K;
  if (Left < Size) {
    // File the old chunk's tail under the classes it fits, largest first.
    while (Left >= MinBlock) {
      unsigned T = static_cast<unsigned>(std::bit_width(Left / MinBlock)) - 1;
      *reinterpret_cast<void **>(Cur) = Free[T];
      Free[T] = Cur;
      Cur += MinBlock << T;
      Left -= MinBlock << T;
    }
    Chunks.reserve(Chunks.size() + 1);
    Cur = static_cast<char *>(chunkCache().take());
    Chunks.push_back(Cur);
    Left = ChunkBytes;
  }
  void *P = Cur;
  Cur += Size;
  Left -= Size;
  return P;
}

void InstArena::do_deallocate(void *P, size_t Bytes, size_t) {
  unsigned K = classOf(Bytes);
  if (K >= NumClasses) {
    munmap(P, Bytes);
    return;
  }
  *static_cast<void **>(P) = Free[K];
  Free[K] = P;
}

//===- ir/InstArena.cpp ---------------------------------------------------===//

#include "ir/InstArena.h"

#include <memory>
#include <mutex>
#include <new>
#include <sys/mman.h>

using namespace kremlin;

namespace {

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
    return mapBytes(InstArena::ChunkBytes);
  }

  void give(const std::vector<void *> &Chunks) noexcept {
    std::lock_guard<std::mutex> Lock(Mutex);
    try {
      Free.insert(Free.end(), Chunks.begin(), Chunks.end());
    } catch (const std::bad_alloc &) {
      // No room to keep them: they go back to the OS instead.
      for (void *C : Chunks)
        munmap(C, InstArena::ChunkBytes);
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

} // namespace

InstArena::~InstArena() { chunkCache().give(Chunks); }

void *InstArena::do_allocate(size_t Bytes, size_t Align) {
  if (Bytes > ChunkBytes)
    return mapBytes(Bytes);
  if (!std::align(Align, Bytes, Cur, Left)) {
    // The old chunk's tail stays unused.
    Chunks.reserve(Chunks.size() + 1);
    Cur = chunkCache().take();
    Chunks.push_back(Cur);
    Left = ChunkBytes;
  }
  void *P = Cur;
  Cur = static_cast<char *>(Cur) + Bytes;
  Left -= Bytes;
  return P;
}

void InstArena::do_deallocate(void *P, size_t Bytes, size_t) {
  // A block inside a chunk stays until the arena dies.
  if (Bytes > ChunkBytes)
    munmap(P, Bytes);
}

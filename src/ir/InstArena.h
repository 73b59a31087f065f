//===- ir/InstArena.h - Instruction-list memory for lowering ----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory for the instruction lists lowering builds, independent of the
/// thread that builds them.
///
/// Lowering runs on several threads, and each thread allocates from its
/// own malloc arena. Memory freed into an arena stays there for that
/// thread's later use, so instruction lists lowered on the helpers would
/// leave each helper's arena holding as much IR as the schedule happened
/// to give it, and the process's peak memory would vary from run to run.
/// An InstArena instead carves lists out of fixed-size chunks taken from
/// one process-wide cache, which every thread reuses. How many chunks a
/// module takes depends only on its functions, and the cache holds as many
/// as the modules alive at once have needed.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_IR_INSTARENA_H
#define KREMLIN_IR_INSTARENA_H

#include <cstddef>
#include <memory_resource>
#include <vector>

namespace kremlin {

/// A memory resource for one share of a module's instruction lists. It only
/// hands memory out: a bump pointer over chunks from the cache, with a list
/// larger than a chunk in its own mapping. IRBuilder places each list here
/// once, at its final size, when its block is terminated. Only tests regrow
/// a placed list, because they edit lowered IR; the list's old block then
/// stays unused until the module dies and the arena returns its chunks to
/// the cache. Not synchronized: one thread allocates from an arena at a time.
class InstArena final : public std::pmr::memory_resource {
public:
  /// Chunk size: whole pages, room for 1,170 instructions.
  static constexpr size_t ChunkBytes = size_t{64} << 10;

  InstArena() = default;
  ~InstArena() override;

  InstArena(const InstArena &) = delete;
  InstArena &operator=(const InstArena &) = delete;

private:
  void *do_allocate(size_t Bytes, size_t Align) override;
  void do_deallocate(void *P, size_t Bytes, size_t Align) override;
  bool do_is_equal(const std::pmr::memory_resource &Other) const
      noexcept override {
    return this == &Other;
  }

  /// Chunks taken from the cache, returned on destruction.
  std::vector<void *> Chunks;
  /// Unused tail of the newest chunk.
  void *Cur = nullptr;
  size_t Left = 0;
};

} // namespace kremlin

#endif // KREMLIN_IR_INSTARENA_H

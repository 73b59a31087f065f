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

#include <array>
#include <cstddef>
#include <memory_resource>
#include <vector>

namespace kremlin {

/// A memory resource for one share of a module's instruction lists. Blocks
/// come in power-of-two size classes; a freed block goes on its class's
/// free list for the next list of that class, and the chunks go back to the
/// cache when the arena is destroyed. Requests too large for a class get
/// their own mapping. Not synchronized: one thread allocates from or frees
/// into an arena at a time.
class InstArena final : public std::pmr::memory_resource {
public:
  /// Smallest block: class K holds blocks of MinBlock << K bytes.
  static constexpr size_t MinBlock = 64;
  static constexpr unsigned NumClasses = 9; // Up to 16 KiB.

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

  /// Heads of the per-class free lists, linked through the blocks' first
  /// word.
  std::array<void *, NumClasses> Free{};
  /// Chunks taken from the cache, returned on destruction.
  std::vector<void *> Chunks;
  /// Unused tail of the newest chunk.
  char *Cur = nullptr;
  size_t Left = 0;
};

} // namespace kremlin

#endif // KREMLIN_IR_INSTARENA_H

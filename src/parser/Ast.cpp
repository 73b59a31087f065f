//===- parser/Ast.cpp -----------------------------------------------------===//

#include "parser/Ast.h"

#include <algorithm>
#include <cassert>

using namespace kremlin;

namespace {

constexpr SymbolId FreeSlot = UINT32_MAX;
constexpr size_t ChunkBytes = size_t{64} << 10;

uint32_t hashName(std::string_view Name) {
  uint32_t H = 2166136261u;
  for (unsigned char C : Name)
    H = (H ^ C) * 16777619u;
  return H;
}

} // namespace

NameTable::NameTable() : Offsets{0}, Slots(1024, FreeSlot) { intern(""); }

SymbolId NameTable::intern(std::string_view Name) {
  size_t Mask = Slots.size() - 1;
  size_t Slot = hashName(Name) & Mask;
  for (; Slots[Slot] != FreeSlot; Slot = (Slot + 1) & Mask)
    if (name(Slots[Slot]) == Name)
      return Slots[Slot];

  SymbolId Id = size();
  Chars.append(Name);
  Offsets.push_back(static_cast<uint32_t>(Chars.size()));
  Slots[Slot] = Id;
  if (size() > Slots.size() / 2) {
    // Keep the load at most one half: rehash into twice the slots.
    std::vector<SymbolId> Grown(2 * Slots.size(), FreeSlot);
    Mask = Grown.size() - 1;
    for (SymbolId Old = 0; Old <= Id; ++Old) {
      size_t S = hashName(name(Old)) & Mask;
      while (Grown[S] != FreeSlot)
        S = (S + 1) & Mask;
      Grown[S] = Old;
    }
    Slots.swap(Grown);
  }
  return Id;
}

void *AstArena::allocate(size_t Bytes, size_t Align) {
  assert(Align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  size_t At = (Used + Align - 1) & ~(Align - 1);
  if (Chunks.empty() || At + Bytes > Capacity) {
    // A list larger than a chunk gets a chunk of its own.
    Capacity = std::max(ChunkBytes, Bytes);
    Chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(Capacity));
    At = 0;
  }
  Used = At + Bytes;
  return Chunks.back().get() + At;
}

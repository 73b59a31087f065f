//===- ir/Module.h - Top-level IR container ---------------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Module owns everything produced from one MiniC source: functions,
/// globals, and the program-wide static region table. Region ids are unique
/// across the whole module so the runtime and planner can index flat tables
/// by RegionId.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_IR_MODULE_H
#define KREMLIN_IR_MODULE_H

#include "ir/Function.h"
#include "ir/InstArena.h"
#include "ir/Region.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kremlin {

using GlobalId = uint32_t;

/// A module-level array variable (MiniC has no scalar globals; scalars are
/// always locals/params, which keeps the shadow-register split of the paper
/// intact: registers for locals, shadow memory for arrays).
struct GlobalArray {
  GlobalId Id = 0;
  std::string Name;
  uint64_t SizeWords = 0;
  Type ElemTy = Type::Int;
};

/// Whole-program IR container.
class Module {
public:
  /// Source file name this module was parsed from (for region spans).
  std::string SourceName;

  std::vector<Function> Functions;
  std::vector<GlobalArray> Globals;
  /// All static regions, indexed by RegionId.
  std::vector<StaticRegion> Regions;

  /// The arenas lowering allocated the functions' instruction lists from.
  /// Declared after Functions, so a move assignment replaces the lists
  /// before the arenas they live in.
  std::vector<std::unique_ptr<InstArena>> InstArenas;

  Module() = default;
  /// The copy's instruction lists take the default resource, so it shares
  /// no arena with \p Other.
  Module(const Module &Other)
      : SourceName(Other.SourceName), Functions(Other.Functions),
        Globals(Other.Globals), Regions(Other.Regions),
        FuncNames(Other.FuncNames) {}
  Module(Module &&) = default;
  Module &operator=(const Module &Other) {
    Module Copy(Other);
    return *this = std::move(Copy);
  }
  Module &operator=(Module &&) = default;
  /// Destroys the instruction lists before the arenas they live in.
  ~Module() { Functions.clear(); }

  /// Adds a function and returns its id.
  FuncId addFunction(Function F) {
    F.Id = static_cast<FuncId>(Functions.size());
    FuncNames[F.Name] = F.Id;
    Functions.push_back(std::move(F));
    return Functions.back().Id;
  }

  /// Adds a global array and returns its id.
  GlobalId addGlobal(GlobalArray G) {
    G.Id = static_cast<GlobalId>(Globals.size());
    Globals.push_back(std::move(G));
    return Globals.back().Id;
  }

  /// Creates a region record and returns its id. Parent/child links are the
  /// caller's responsibility (IRBuilder and the parser maintain them).
  RegionId addRegion(StaticRegion R) {
    R.Id = static_cast<RegionId>(Regions.size());
    Regions.push_back(std::move(R));
    return Regions.back().Id;
  }

  /// Looks up a function id by name; returns NoFunc if absent.
  FuncId findFunction(const std::string &Name) const {
    auto It = FuncNames.find(Name);
    return It == FuncNames.end() ? NoFunc : It->second;
  }

  /// The entry function ("main"); NoFunc if the module has none.
  FuncId mainFunction() const { return findFunction("main"); }

  /// The innermost Loop region enclosing region \p R (\p R itself when it
  /// is one); NoRegion when there is none or a parent link leaves the
  /// region table.
  RegionId enclosingLoopRegion(RegionId R) const {
    while (R < Regions.size() && Regions[R].Kind != RegionKind::Loop)
      R = Regions[R].Parent;
    return R < Regions.size() ? R : NoRegion;
  }

  /// Total global array storage in words.
  uint64_t globalWords() const {
    uint64_t Total = 0;
    for (const GlobalArray &G : Globals)
      Total += G.SizeWords;
    return Total;
  }

  /// Number of candidate regions (Function + Loop; Body regions are
  /// measurement-internal and never appear in plans or region counts).
  unsigned numCandidateRegions() const {
    unsigned N = 0;
    for (const StaticRegion &R : Regions)
      if (R.Kind != RegionKind::Body)
        ++N;
    return N;
  }

private:
  std::unordered_map<std::string, FuncId> FuncNames;
};

} // namespace kremlin

#endif // KREMLIN_IR_MODULE_H

//===- analysis/ModRef.h - Bottom-up function side-effect summaries -*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function memory side-effect summaries at array-base granularity.
/// MiniC memory is a set of disjoint arrays (globals, per-activation frame
/// arrays, and array parameters that alias their caller's argument), so a
/// function's caller-visible effect is exactly:
///
///   - which global arrays it may read / write,
///   - which of its array parameters it may read / write through,
///
/// or Opaque when an address cannot be resolved to one of those roots. Frame
/// arrays are private to each activation and never appear in the summary.
/// Summaries are computed bottom-up over the call graph's SCC condensation;
/// recursive components are saturated by a fixpoint union over the members
/// (the lattice is finite: three bits per array/parameter), so recursion is
/// handled conservatively but precisely enough that a pure recursive
/// function (e.g. fib) summarizes as effect-free.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_ANALYSIS_MODREF_H
#define KREMLIN_ANALYSIS_MODREF_H

#include "analysis/CallGraph.h"
#include "analysis/FunctionAnalysis.h"
#include "ir/Module.h"

#include <algorithm>
#include <vector>

namespace kremlin {

/// Caller-visible memory effects of one function.
struct ModRefSummary {
  /// The function touches memory the analysis cannot attribute to a global
  /// or parameter root; callers must assume arbitrary effects.
  bool Opaque = false;
  /// The function sits on a call-graph cycle (summary was saturated).
  bool Recursive = false;
  /// Global array ids possibly read / written, sorted ascending.
  std::vector<GlobalId> GlobalReads;
  std::vector<GlobalId> GlobalWrites;
  /// Per-parameter flags: the function may load from / store through the
  /// array passed as parameter k. Sized to NumParams.
  std::vector<unsigned char> ParamReads;
  std::vector<unsigned char> ParamWrites;

  bool readsParam(unsigned K) const {
    return K < ParamReads.size() && ParamReads[K];
  }
  bool writesParam(unsigned K) const {
    return K < ParamWrites.size() && ParamWrites[K];
  }
  /// True when the function provably touches no caller-visible memory.
  bool isPure() const {
    return !Opaque && GlobalReads.empty() && GlobalWrites.empty() &&
           std::none_of(ParamReads.begin(), ParamReads.end(),
                        [](unsigned char C) { return C != 0; }) &&
           std::none_of(ParamWrites.begin(), ParamWrites.end(),
                        [](unsigned char C) { return C != 0; });
  }
};

/// Summaries for every function of a module, indexed by FuncId.
struct ModRefResult {
  std::vector<ModRefSummary> Summaries;
  /// How many functions ended up Opaque.
  unsigned NumOpaque = 0;

  const ModRefSummary *of(FuncId F) const {
    return F < Summaries.size() ? &Summaries[F] : nullptr;
  }
};

/// What one function's body contributes to its summary, read once from
/// its def index: the effects of its own loads and stores, and each call
/// with the arrays its arguments resolve to. The fixpoint works from these,
/// so no def index has to stay alive while the module's summaries form.
struct ModRefBody {
  struct Call {
    /// The call's Aux; out of range for an unknown callee.
    uint32_t Callee = 0;
    std::vector<ArrayRoot> Args;
  };
  /// Effects of the body's own loads and stores.
  ModRefSummary Own;
  /// The body's calls, in instruction order.
  std::vector<Call> Calls;
};

/// Reads \p F's body for mod/ref; \p D is \p F's def index, over which
/// addresses resolve to arrays with no loop (DefChains).
ModRefBody modRefBody(const Function &F, const DefIndex &D);

/// Computes bottom-up mod/ref summaries for every function of \p M using
/// the SCC order of \p CG; \p Bodies holds each function's body summary,
/// indexed by FuncId.
ModRefResult computeModRef(const Module &M, const CallGraph &CG,
                           const std::vector<ModRefBody> &Bodies);

} // namespace kremlin

#endif // KREMLIN_ANALYSIS_MODREF_H

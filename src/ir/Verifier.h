//===- ir/Verifier.h - IR well-formedness checks ----------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verification of Kremlin IR modules. Run after parsing/lowering
/// and after instrumentation; a verified module is safe to interpret.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_IR_VERIFIER_H
#define KREMLIN_IR_VERIFIER_H

#include "ir/Module.h"

#include <string>
#include <vector>

namespace kremlin {

/// Checks module invariants:
///  - every block is non-empty and ends in exactly one terminator;
///  - branch targets, callees, globals, frame arrays and regions are in
///    range; operand registers are < NumValues;
///  - region records are consistent (parent/child symmetry, Body regions
///    only under Loop regions, Function regions rooted);
///  - call argument counts match callee parameter counts.
///
/// Returns all violations found (empty means the module verified): the
/// region table's first, then each function's in function order. The
/// functions are checked on every available CPU (parallelFor).
std::vector<std::string> verifyModule(const Module &M);

/// Convenience: true if verifyModule(M) found no problems.
bool moduleVerifies(const Module &M);

} // namespace kremlin

#endif // KREMLIN_IR_VERIFIER_H

//===- ir/IRPrinter.h - Textual IR dump -------------------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders modules/functions as readable text for debugging and tests.
/// The format is write-only (there is no IR text parser; programs enter the
/// system as MiniC source or via IRBuilder).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_IR_IRPRINTER_H
#define KREMLIN_IR_IRPRINTER_H

#include "ir/Module.h"

#include <string>

namespace kremlin {

/// Renders one instruction of \p F ("  %3 = add %1, %2").
std::string printInstruction(const Module &M, const Function &F,
                             const Instruction &I);

/// Renders one function with block labels.
std::string printFunction(const Module &M, const Function &F);

/// Renders the whole module: globals, regions, functions.
std::string printModule(const Module &M);

} // namespace kremlin

#endif // KREMLIN_IR_IRPRINTER_H

//===- parser/Lower.h - AST to Kremlin IR lowering --------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a parsed MiniC program into Kremlin IR. Lowering:
///  - creates the static region table (one Function region per function,
///    Loop + Body regions per for/while) and emits RegionEnter/RegionExit
///    markers in the positions the paper's instrumentation uses;
///  - sets each CondBr's MergeBlock (its immediate post-dominator, known
///    structurally for MiniC's structured control flow) for the runtime
///    control-dependence stack;
///  - flattens multi-dimensional array indexing into word addresses.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PARSER_LOWER_H
#define KREMLIN_PARSER_LOWER_H

#include "ir/Module.h"
#include "parser/Ast.h"

#include <memory>
#include <string>
#include <vector>

namespace kremlin {

/// Result of lowering: the module plus any semantic errors.
struct LowerResult {
  std::unique_ptr<Module> M;
  std::vector<std::string> Errors;

  bool succeeded() const { return Errors.empty(); }
};

/// Lowers \p Program to IR. Always returns a module; it is only meaningful
/// when Errors is empty. Function bodies lower on every available CPU, in
/// one contiguous share of the functions per CPU (parallelFor); region
/// ids, errors and their order are those of a serial run.
LowerResult lowerProgram(const ProgramAst &Program);

/// Convenience: parse + lower in one step. Parse errors are folded into the
/// result's error list.
LowerResult compileMiniC(std::string_view Source, std::string SourceName);

} // namespace kremlin

#endif // KREMLIN_PARSER_LOWER_H

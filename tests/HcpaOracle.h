//===- tests/HcpaOracle.h - Independent HCPA reference ----------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A test-only oracle for hierarchical critical path analysis (paper
/// §4.1-4.2). It executes instrumented IR itself and computes every dynamic
/// region instance's work and critical path in the most direct way: each
/// live instance owns hash maps from (call, register) and from address to
/// the availability times of values written during its lifetime, and open
/// control dependences sit on an explicit stack.
///
/// It deliberately shares nothing with the production execute stage beyond
/// the IR, KremlinConfig, latencyOf() and the DictionaryCompressor it
/// interns summaries into: no Interpreter, tape, ProfEvent stream,
/// KremlinRuntime or ShadowMemory. A bug in any of those therefore shows up
/// as a difference against this oracle.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_TESTS_HCPAORACLE_H
#define KREMLIN_TESTS_HCPAORACLE_H

#include "compress/Dictionary.h"
#include "ir/Module.h"
#include "rt/KremlinRuntime.h"

#include <string>

namespace kremlin::test {

/// Runs the oracle once on the instrumented module \p M, interning one
/// summary per dynamic region into \p Dict, which may already hold earlier
/// runs (so two calls profile the concatenated runs).
void runOracle(const Module &M, const KremlinConfig &Cfg,
               DictionaryCompressor &Dict);

/// Profiles the instrumented (or hand-built) module \p M with the
/// interpreter and KremlinRuntime, runs the oracle on it, and expects
/// bit-equal results: exit value, dynamic instructions, summary alphabet,
/// roots, dynamic region count and every per-region profile entry.
void expectProfileMatchesOracle(const Module &M,
                                const KremlinConfig &Cfg = KremlinConfig());

/// Compiles and instruments \p Source, then checks it as above.
void expectProfileMatchesOracle(const std::string &Source,
                                const KremlinConfig &Cfg = KremlinConfig());

} // namespace kremlin::test

#endif // KREMLIN_TESTS_HCPAORACLE_H

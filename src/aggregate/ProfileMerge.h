//===- aggregate/ProfileMerge.h - HCPA profile merge ------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-scale merge operator over compressed HCPA profiles. A merged
/// profile is defined as the profile of the *concatenated* runs, and the
/// implementation makes that literal at the dictionary level: merging
/// interns every alphabet entry of the incoming dictionary into the target
/// (remapping child characters through the content-addressed index) and
/// concatenates the root tables. Because `ParallelismProfile` aggregates
/// per dictionary entry with work×multiplicity weights, the merged profile
/// automatically recombines self-parallelism as the work-weighted
/// composition of the inputs and preserves the ΣSelfWork == root-work
/// invariant — no per-metric merge formulas to get wrong, and the operator
/// is associative and commutative up to alphabet numbering.
///
/// Also here: the synthetic module (fleet profiles arrive without source,
/// so views need placeholder static regions) and the `kremlin diff` table,
/// which reads the region entries of both profiles over their synthetic
/// modules (entry aggregates are alphabet-order independent, unlike the
/// dictionaries themselves).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_AGGREGATE_PROFILEMERGE_H
#define KREMLIN_AGGREGATE_PROFILEMERGE_H

#include "compress/Dictionary.h"
#include "ir/Module.h"
#include "profile/ParallelismProfile.h"

#include <string>
#include <vector>

namespace kremlin {
namespace aggregate {

/// Merges \p In into \p Out: alphabet union with child-character remapping,
/// root-table concatenation, dynamic-region counts summed. Equivalent to
/// having profiled both runs into one sink.
void mergeInto(DictionaryCompressor &Out, const DictionaryCompressor &In);

/// Merges \p Runs (any count, empties allowed) into a fresh dictionary.
DictionaryCompressor mergeProfiles(
    const std::vector<const DictionaryCompressor *> &Runs);

/// A placeholder module for profiles whose source is unavailable (fleet
/// ingests ship only the compressed trace): one Function-kind region
/// "r<id>" per static region id referenced by \p Dict, so every view and
/// planner path works unmodified. Ids keep their numeric identity —
/// regions merge across profiles by static region id exactly as they
/// would with the real module.
Module syntheticModule(const DictionaryCompressor &Dict);

/// Whole-program work of \p Dict: Σ over root characters of work × count.
/// Merge preserves this additively: programWork(merge(a,b)) ==
/// programWork(a) + programWork(b).
uint64_t programWork(const DictionaryCompressor &Dict);

/// Renders the per-region work/SP/coverage deltas between \p Before and
/// \p After, each read as ParallelismProfile(syntheticModule(D), D), as an
/// aligned table (TablePrinter; the `stats --diff`
/// conventions: one row per region present in either side, "n/a" for a
/// side that never executed the region).
std::string renderProfileDiff(const DictionaryCompressor &Before,
                              const DictionaryCompressor &After);

} // namespace aggregate
} // namespace kremlin

#endif // KREMLIN_AGGREGATE_PROFILEMERGE_H

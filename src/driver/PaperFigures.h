//===- driver/PaperFigures.h - Paper figures from one run -------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's tables and figures as functions over the runs one
/// `kremlin-bench` suite run makes. Each benchmark is profiled once; its
/// run yields the per-benchmark numbers of Figs. 6(a), 6(b), 7, 8 and 9,
/// §4.4's compression table, §5.1's replans, §6.2's classification and
/// the planner ablation. Replanning and simulation read the profile and
/// never re-run the program (PAPER.md §1, steps 3–4). Only the inputs a
/// figure defines beyond the suite are profiled on top: each benchmark's
/// 4x ref input (§6.1) and, in full-suite runs, cg's time-step sweep
/// (§4.4), the tracking program (Figs. 2–3) and Fig. 5's loops.
///
/// A per-program number is "<program>.<metric>"; a "suite.<metric>"
/// number derives from per-benchmark numbers. The tables render from the
/// metric map, so every cell they print is a number the baseline gates.
/// The exceptions are Figs. 2 and 3's region listings and Fig. 7's
/// marginal series, which each run renders itself (Listings).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_DRIVER_PAPERFIGURES_H
#define KREMLIN_DRIVER_PAPERFIGURES_H

#include "driver/BenchHarness.h"
#include "driver/KremlinDriver.h"
#include "suite/SourceGenerator.h"

#include <map>
#include <string>
#include <vector>

namespace kremlin {

/// One program a suite run profiles.
struct FigureProgram {
  enum class Kind {
    Benchmark,   ///< A suite benchmark at its default (train) input.
    RefInput,    ///< A suite benchmark at 4x its time steps (§6.1).
    CgTimesteps, ///< cg at another time-step count (§4.4's sweep).
    Tracking,    ///< The SD-VBS tracking program (Figs. 2–3).
    SelfPLoop,   ///< One of Fig. 5's serial/parallel loops.
  };
  Kind K = Kind::Benchmark;
  /// The outcome the run reports under, which is also the prefix of its
  /// metrics: the benchmark's name for Benchmark and RefInput runs, else
  /// e.g. "cg_t8", "tracking", "parallel_n32".
  std::string Name;
  /// cg's time steps (CgTimesteps) or the loop's trip count (SelfPLoop).
  unsigned Param = 0;
};

/// Every program a run over \p Benchmarks profiles: each benchmark, then
/// each benchmark's ref input, then — when \p FullSuite — the tracking
/// program, Fig. 5's six loops and cg at 2, 8, 16 and 32 time steps (the
/// suite's cg run is the sweep's 4-step row).
std::vector<FigureProgram>
figurePrograms(const std::vector<std::string> &Benchmarks, bool FullSuite);

/// The source \p P runs on, with its loop map when it is a generated
/// benchmark. An unknown benchmark name is an InvalidArgument status
/// (figurePrograms gives it no RefInput run).
Expected<GeneratedBenchmark> figureSource(const FigureProgram &P);

/// Figure text that is not a number, keyed like metrics
/// ("<program>.<figure>"): "bt.fig7" is bt's Fig. 7 series line,
/// "tracking.fig3" the tracking plan listing, "tracking.fig2" its
/// fillFeatures table.
using Listings = std::map<std::string, std::string>;

/// The numbers \p P's run \p R contributes, into \p Out, and its
/// listings into \p Text. RefInput runs contribute nothing here: §6.1
/// needs the train run too (addInputSensitivity).
void addRunFigures(const FigureProgram &P, const GeneratedBenchmark &GB,
                   const DriverResult &R, const std::string &Personality,
                   MetricMap &Out, Listings &Text);

/// §6.1: transfers \p Train's plan onto \p Ref by source line and compares
/// it with the plan computed on \p Ref.
void addInputSensitivity(const std::string &Name, const DriverResult &Train,
                         const DriverResult &Ref, MetricMap &Out);

/// The suite.* aggregates of the figures over \p Benchmarks, in order.
/// Benchmarks without metrics (failed ones) are left out.
void addSuiteFigures(const std::vector<std::string> &Benchmarks,
                     MetricMap &Metrics);

/// Renders every figure table from \p Metrics and the runs' listings.
/// Figures whose numbers are absent are skipped.
std::string renderFigures(const std::vector<std::string> &Benchmarks,
                          const MetricMap &Metrics, const Listings &Text);

} // namespace kremlin

#endif // KREMLIN_DRIVER_PAPERFIGURES_H

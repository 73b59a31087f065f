//===- machine/ExecutionSimulator.h - Parallel machine model ----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine model that stands in for the paper's 32-core AMD NUMA
/// testbed (§6.1). Given a profile and a plan (the set of parallelized
/// regions), it simulates whole-program execution time at a core count:
///
///  - a parallelized region's ideal time is bounded below by its measured
///    critical path and by work / min(SP, cores);
///  - each dynamic instance pays a spawn cost, each worker chunk a
///    synchronization cost, and reduction loops a log2(cores) combine tree;
///  - a NUMA data-migration factor inflates parallel time and *decays with
///    the fraction of program work already parallelized* — reproducing the
///    §6.2 observation that "as more of the program is parallelized, less
///    data migration happens", which makes later plan entries look
///    super-linear in Figure 7;
///  - everything outside parallelized subtrees runs serially at measured
///    self-work, walking the profile's region tree.
///
/// The evaluation protocol mirrors §6.1: run every core configuration in
/// {1,2,4,8,16,32} and report the best.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_MACHINE_EXECUTIONSIMULATOR_H
#define KREMLIN_MACHINE_EXECUTIONSIMULATOR_H

#include "planner/Plan.h"
#include "profile/ParallelismProfile.h"

#include <vector>

namespace kremlin {

/// Cost parameters, in the profile's latency units.
struct MachineConfig {
  std::vector<unsigned> CoreCounts = {1, 2, 4, 8, 16, 32};
  /// Cost of entering a parallel section (thread wake-up / fork), per
  /// dynamic region instance.
  double SpawnCost = 60.0;
  /// Synchronization cost per worker chunk per instance (implicit barrier).
  double ChunkSyncCost = 2.0;
  /// Reduction combine cost per tree level (log2(cores) levels).
  double ReductionCost = 50.0;
  /// NUMA migration inflation at zero parallel coverage (0.35 = +35%).
  double MigrationPenalty = 0.35;
  /// Parallel coverage fraction at which migration cost is fully amortized.
  double MigrationSaturation = 0.75;
};

/// Result of simulating one plan at its best core configuration.
struct SimOutcome {
  double SerialTime = 0.0;
  double BestTime = 0.0;
  unsigned BestCores = 1;
  double speedup() const {
    return BestTime > 0.0 ? SerialTime / BestTime : 1.0;
  }
};

/// Simulates plans over one profile.
class ExecutionSimulator {
public:
  ExecutionSimulator(const ParallelismProfile &Profile,
                     MachineConfig Cfg = MachineConfig());

  /// Whole-program time with \p PlanRegions parallelized on \p Cores.
  double simulateTime(const std::vector<RegionId> &PlanRegions,
                      unsigned Cores) const;

  /// Serial execution time (no parallel regions).
  double serialTime() const;

  /// Best configuration over MachineConfig::CoreCounts.
  SimOutcome evaluatePlan(const std::vector<RegionId> &PlanRegions) const;

  /// Fraction of execution time removed by each successive plan prefix:
  /// Result[k] = (T_serial - T(prefix of k+1 regions)) / T_serial.
  /// The Figure 7 marginal-benefit series.
  std::vector<double>
  cumulativeTimeReduction(const std::vector<RegionId> &OrderedPlan) const;

  const MachineConfig &config() const { return Cfg; }
  const ParallelismProfile &profile() const { return Profile; }

private:
  const ParallelismProfile &Profile;
  MachineConfig Cfg;

  double regionTime(RegionId R, const std::vector<char> &InPlan,
                    unsigned Cores, double CoveredFrac) const;
};

} // namespace kremlin

#endif // KREMLIN_MACHINE_EXECUTIONSIMULATOR_H

//===- machine/ExecutionSimulator.cpp -------------------------------------===//

#include "machine/ExecutionSimulator.h"

#include <algorithm>
#include <cmath>

using namespace kremlin;

ExecutionSimulator::ExecutionSimulator(const ParallelismProfile &Profile,
                                       MachineConfig Cfg)
    : Profile(Profile), Cfg(std::move(Cfg)) {}

double ExecutionSimulator::serialTime() const {
  return static_cast<double>(Profile.programWork());
}

/// Time of region \p R's whole dynamic footprint (all instances).
double ExecutionSimulator::regionTime(RegionId R,
                                      const std::vector<char> &InPlan,
                                      unsigned Cores,
                                      double CoveredFrac) const {
  const RegionProfileEntry &E = Profile.entry(R);
  double Work = static_cast<double>(E.TotalWork);
  if (Work <= 0.0)
    return 0.0;

  if (InPlan[R]) {
    // Parallel execution: lower-bounded by the critical path and by
    // work/min(SP, cores).
    double Sp = std::min(E.SelfParallelism, static_cast<double>(Cores));
    if (Sp < 1.0)
      Sp = 1.0;
    double Ideal = std::max(static_cast<double>(E.TotalCp), Work / Sp);

    // NUMA migration: expensive while little of the program is parallel,
    // amortized once parallel coverage saturates.
    double Remaining =
        std::max(0.0, 1.0 - CoveredFrac / Cfg.MigrationSaturation);
    double Numa = 1.0 + Cfg.MigrationPenalty * Remaining;

    double Instances = static_cast<double>(E.Instances);
    double Chunks = std::min(Sp, static_cast<double>(Cores));
    double Overhead = Instances * Cfg.SpawnCost +
                      Instances * Chunks * Cfg.ChunkSyncCost;
    if (Profile.module().Regions[R].HasReduction)
      Overhead += Instances * Cfg.ReductionCost *
                  std::log2(std::max(2.0, static_cast<double>(Cores)));
    return Ideal * Numa + Overhead;
  }

  // Serial here; descend for parallel descendants.
  double ChildTime = 0.0;
  for (RegionId C : Profile.children(R))
    ChildTime += regionTime(C, InPlan, Cores, CoveredFrac);
  return static_cast<double>(E.SelfWork) + ChildTime;
}

double
ExecutionSimulator::simulateTime(const std::vector<RegionId> &PlanRegions,
                                 unsigned Cores) const {
  const Module &M = Profile.module();
  if (Profile.rootRegion() == NoRegion)
    return 0.0;
  std::vector<char> InPlan(M.Regions.size(), 0);
  double CoveredFrac = 0.0;
  for (RegionId R : PlanRegions) {
    if (R < InPlan.size() && Profile.entry(R).Executed &&
        M.Regions[R].Kind != RegionKind::Body) {
      InPlan[R] = 1;
      CoveredFrac += Profile.entry(R).CoveragePct / 100.0;
    }
  }
  CoveredFrac = std::min(CoveredFrac, 1.0);
  return regionTime(Profile.rootRegion(), InPlan, Cores, CoveredFrac);
}

SimOutcome
ExecutionSimulator::evaluatePlan(const std::vector<RegionId> &PlanRegions) const {
  SimOutcome Out;
  Out.SerialTime = serialTime();
  Out.BestTime = Out.SerialTime;
  Out.BestCores = 1;
  for (unsigned Cores : Cfg.CoreCounts) {
    double T = simulateTime(PlanRegions, Cores);
    if (T < Out.BestTime) {
      Out.BestTime = T;
      Out.BestCores = Cores;
    }
  }
  return Out;
}

std::vector<double> ExecutionSimulator::cumulativeTimeReduction(
    const std::vector<RegionId> &OrderedPlan) const {
  std::vector<double> Reductions;
  Reductions.reserve(OrderedPlan.size());
  double Serial = serialTime();
  if (Serial <= 0.0)
    return Reductions;
  std::vector<RegionId> Prefix;
  for (RegionId R : OrderedPlan) {
    Prefix.push_back(R);
    SimOutcome Out = evaluatePlan(Prefix);
    Reductions.push_back((Serial - Out.BestTime) / Serial);
  }
  return Reductions;
}

//===- planner/Personality.cpp --------------------------------------------===//

#include "planner/Personality.h"

#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>

using namespace kremlin;

namespace {

/// Records one planner eligibility decision: accepted/rejected counters in
/// the registry, plus — when a trace sink is configured — an instant event
/// carrying the region id and the reason, so a trace shows *why* each
/// region made or missed the plan.
/// The static loop-dependence verdict for \p R, Unknown when the analyzer
/// did not run or produced nothing for this region.
LoopVerdict staticVerdictOf(const PlannerOptions &Opts, RegionId R) {
  auto It = Opts.StaticVerdicts.find(R);
  return It == Opts.StaticVerdicts.end() ? LoopVerdict::Unknown : It->second;
}

void planDecision(RegionId R, bool Accepted, const char *Reason) {
  static telemetry::Counter &AcceptedC =
      telemetry::Registry::global().counter("planner.accepted");
  static telemetry::Counter &RejectedC =
      telemetry::Registry::global().counter("planner.rejected");
  (Accepted ? AcceptedC : RejectedC).add();
  if (telemetry::traceEnabled())
    telemetry::instantEvent(
        formatString("plan.%s r%u", Accepted ? "accept" : "reject",
                     static_cast<unsigned>(R)),
        "planner",
        {{"region", std::to_string(R)}, {"reason", Reason}});
}

} // namespace

PlanItem kremlin::makePlanItem(const ParallelismProfile &Profile,
                               RegionId R) {
  const RegionProfileEntry &E = Profile.entry(R);
  PlanItem Item;
  Item.Region = R;
  Item.SelfP = E.SelfParallelism;
  Item.CoveragePct = E.CoveragePct;
  Item.Class = E.Class;
  double Frac = E.CoveragePct / 100.0;
  Item.GainFrac = Frac * (1.0 - 1.0 / std::max(1.0, E.SelfParallelism));
  Item.EstSpeedup = Item.GainFrac < 1.0 ? 1.0 / (1.0 - Item.GainFrac) : 1e9;
  return Item;
}

/// Sorts items by decreasing gain, annotates each with its static verdict,
/// and computes the combined Amdahl speedup (valid when the selected
/// regions are disjoint along every path).
static Plan finishPlan(std::string Name, std::vector<PlanItem> Items,
                       const PlannerOptions &Opts) {
  for (PlanItem &I : Items)
    I.Static = staticVerdictOf(Opts, I.Region);
  std::sort(Items.begin(), Items.end(),
            [](const PlanItem &A, const PlanItem &B) {
              if (A.GainFrac != B.GainFrac)
                return A.GainFrac > B.GainFrac;
              return A.Region < B.Region;
            });
  static telemetry::Counter &Selected =
      telemetry::Registry::global().counter("planner.selected");
  Selected.add(Items.size());
  double TotalGain = 0.0;
  for (const PlanItem &I : Items)
    TotalGain += I.GainFrac;
  TotalGain = std::min(TotalGain, 0.999999);
  Plan P;
  P.Personality = std::move(Name);
  P.Items = std::move(Items);
  P.EstProgramSpeedup = 1.0 / (1.0 - TotalGain);
  return P;
}

namespace {

// --- OpenMP (§5.1) ----------------------------------------------------------

class OpenMPPersonality : public Personality {
public:
  std::string name() const override { return "openmp"; }

  /// The naive algorithm of §5.1: repeatedly take the highest-gain
  /// eligible region, excluding anything that can reach or be reached
  /// from a selection. Suboptimal when a parent's single gain beats each
  /// child but not their sum (ft/lu).
  template <typename EligibleFn>
  Plan planGreedy(const ParallelismProfile &Profile,
                  const PlannerOptions &Opts, EligibleFn Eligible) const {
    std::vector<PlanItem> Candidates;
    for (RegionId R : Profile.preorder())
      if (Eligible(R))
        Candidates.push_back(makePlanItem(Profile, R));
    std::sort(Candidates.begin(), Candidates.end(),
              [](const PlanItem &A, const PlanItem &B) {
                return A.GainFrac > B.GainFrac;
              });
    std::vector<PlanItem> Items;
    auto NestsWithSelection = [&](RegionId R) {
      for (const PlanItem &Sel : Items) {
        // Ancestor?
        for (RegionId P = Sel.Region; P != NoRegion; P = Profile.parent(P))
          if (P == R)
            return true;
        // Descendant?
        for (RegionId P = R; P != NoRegion; P = Profile.parent(P))
          if (P == Sel.Region)
            return true;
      }
      return false;
    };
    for (const PlanItem &C : Candidates)
      if (!NestsWithSelection(C.Region))
        Items.push_back(C);
    return finishPlan("openmp-greedy", std::move(Items), Opts);
  }

  Plan plan(const ParallelismProfile &Profile,
            const PlannerOptions &Opts) const override {
    const Module &M = Profile.module();

    // Eligibility filter: the system model. Every verdict on a Function or
    // Loop region is reported as a planner decision event (counter +
    // optional trace instant); Body regions are measurement-internal.
    auto Eligible = [&](RegionId R) {
      if (M.Regions[R].Kind == RegionKind::Body)
        return false;
      if (Opts.Excluded.count(R)) {
        planDecision(R, false, "excluded");
        return false;
      }
      // A statically proven loop-carried dependence overrides whatever the
      // dynamic profile measured on this input: recommending the region
      // would send the programmer at a loop that cannot be parallelized.
      LoopVerdict V = staticVerdictOf(Opts, R);
      if (V == LoopVerdict::ProvablySerial) {
        planDecision(R, false, "provably-serial");
        return false;
      }
      const StaticRegion &SR = M.Regions[R];
      // OpenMP parallelizes loops; function bodies are exploited through
      // the loops inside them.
      if (SR.Kind != RegionKind::Loop) {
        planDecision(R, false, "not-a-loop");
        return false;
      }
      const RegionProfileEntry &E = Profile.entry(R);
      if (E.SelfParallelism < Opts.MinSelfParallelism) {
        // A statically proven reduction can measure serial when HCPA's
        // runtime rule cannot break its recurrence (min/max idioms); the
        // loop still parallelizes with a reduction clause, so let its
        // iteration count stand in for the understated measurement.
        if (!(V == LoopVerdict::ProvablyReduction &&
              E.avgIterations() >= Opts.MinSelfParallelism)) {
          planDecision(R, false, "self-parallelism-below-threshold");
          return false;
        }
      }
      // Reduction loops must amortize OpenMP's reduction overhead --
      // whether the reduction was observed dynamically or proven
      // statically.
      if ((SR.HasReduction || V == LoopVerdict::ProvablyReduction) &&
          E.avgWork() < Opts.MinReductionWork) {
        planDecision(R, false, "reduction-overhead-unamortized");
        return false;
      }
      PlanItem Item = makePlanItem(Profile, R);
      double SpeedupPct = (Item.EstSpeedup - 1.0) * 100.0;
      double MinPct = E.Class == LoopClass::Doacross
                          ? Opts.MinDoacrossSpeedupPct
                          : Opts.MinDoallSpeedupPct;
      if (SpeedupPct < MinPct) {
        planDecision(R, false, "speedup-below-threshold");
        return false;
      }
      planDecision(R, true, "eligible");
      return true;
    };

    if (Opts.Greedy)
      return planGreedy(Profile, Opts, Eligible);

    // Bottom-up DP over the tree: best(R) = max(gain(R) if eligible,
    // sum(best(children))); a Body region passes its children's sum up.
    // Because the preorder lists parents before children, a reverse walk
    // visits children first.
    size_t N = M.Regions.size();
    std::vector<double> Best(N, 0.0);
    std::vector<char> TakeSelf(N, 0);
    const std::vector<RegionId> &Order = Profile.preorder();
    for (size_t Idx = Order.size(); Idx-- > 0;) {
      RegionId R = Order[Idx];
      double ChildSum = 0.0;
      for (RegionId C : Profile.children(R))
        ChildSum += Best[C];
      double SelfGain = Eligible(R) ? makePlanItem(Profile, R).GainFrac : 0.0;
      if (SelfGain > ChildSum && SelfGain > 0.0) {
        Best[R] = SelfGain;
        TakeSelf[R] = 1;
      } else {
        Best[R] = ChildSum;
      }
    }

    // Collect selections top-down: a selected region prunes its subtree.
    std::vector<PlanItem> Items;
    std::vector<RegionId> Stack;
    if (!Order.empty())
      Stack.push_back(Profile.rootRegion());
    while (!Stack.empty()) {
      RegionId R = Stack.back();
      Stack.pop_back();
      if (TakeSelf[R]) {
        Items.push_back(makePlanItem(Profile, R));
        continue;
      }
      for (RegionId C : Profile.children(R))
        Stack.push_back(C);
    }
    return finishPlan(name(), std::move(Items), Opts);
  }
};

// --- Cilk++ (§5.2) -----------------------------------------------------------

class CilkPersonality : public Personality {
public:
  std::string name() const override { return "cilk"; }

  Plan plan(const ParallelismProfile &Profile,
            const PlannerOptions &Opts) const override {
    const Module &M = Profile.module();

    // Cilk++ handles nested and finer-grained parallelism: lower
    // thresholds, functions allowed (spawn), no one-per-path constraint.
    double MinSP = std::max(2.0, Opts.MinSelfParallelism / 2.5);
    double MinPct = Opts.MinDoallSpeedupPct / 2.0;

    std::vector<PlanItem> Items;
    for (RegionId R : Profile.preorder()) {
      if (R == Profile.rootRegion() || M.Regions[R].Kind == RegionKind::Body)
        continue;
      if (Opts.Excluded.count(R)) {
        planDecision(R, false, "excluded");
        continue;
      }
      LoopVerdict V = staticVerdictOf(Opts, R);
      if (V == LoopVerdict::ProvablySerial) {
        planDecision(R, false, "provably-serial");
        continue;
      }
      const RegionProfileEntry &E = Profile.entry(R);
      if (E.SelfParallelism < MinSP &&
          !(V == LoopVerdict::ProvablyReduction &&
            E.avgIterations() >= MinSP)) {
        planDecision(R, false, "self-parallelism-below-threshold");
        continue;
      }
      PlanItem Item = makePlanItem(Profile, R);
      if ((Item.EstSpeedup - 1.0) * 100.0 < MinPct) {
        planDecision(R, false, "speedup-below-threshold");
        continue;
      }
      planDecision(R, true, "eligible");
      // Nested selections overlap, so the naive Amdahl sum would double
      // count; keep the gain attribution but flag nesting by discounting
      // descendants of an already-selected ancestor.
      bool UnderSelected = false;
      for (RegionId P = Profile.parent(R); P != NoRegion;
           P = Profile.parent(P)) {
        for (const PlanItem &Sel : Items)
          if (Sel.Region == P)
            UnderSelected = true;
        if (UnderSelected)
          break;
      }
      if (UnderSelected)
        Item.GainFrac = 0.0; // Counted by the enclosing selection.
      Items.push_back(Item);
    }
    return finishPlan(name(), std::move(Items), Opts);
  }
};

// --- Figure 9 baselines -----------------------------------------------------

class WorkOnlyPersonality : public Personality {
public:
  std::string name() const override { return "work"; }

  Plan plan(const ParallelismProfile &Profile,
            const PlannerOptions &Opts) const override {
    const Module &M = Profile.module();
    std::vector<PlanItem> Items;
    for (const RegionProfileEntry &E : Profile.entries()) {
      if (!E.Executed || M.Regions[E.Id].Kind == RegionKind::Body)
        continue;
      if (Opts.Excluded.count(E.Id))
        continue;
      if (E.CoveragePct < Opts.MinCoveragePct)
        continue;
      // gprof knows nothing about parallelism: rank purely by coverage.
      PlanItem Item = makePlanItem(Profile, E.Id);
      Item.GainFrac = E.CoveragePct / 100.0;
      Items.push_back(Item);
    }
    // gprof-style baseline: deliberately ignores the static verdicts too.
    return finishPlan(name(), std::move(Items), Opts);
  }
};

class SelfPFilterPersonality : public Personality {
public:
  std::string name() const override { return "selfp"; }

  Plan plan(const ParallelismProfile &Profile,
            const PlannerOptions &Opts) const override {
    const Module &M = Profile.module();
    std::vector<PlanItem> Items;
    for (const RegionProfileEntry &E : Profile.entries()) {
      if (!E.Executed || M.Regions[E.Id].Kind == RegionKind::Body)
        continue;
      if (Opts.Excluded.count(E.Id))
        continue;
      if (E.CoveragePct < Opts.MinCoveragePct)
        continue;
      LoopVerdict V = staticVerdictOf(Opts, E.Id);
      if (E.SelfParallelism < Opts.MinSelfParallelism &&
          !(V == LoopVerdict::ProvablyReduction &&
            E.avgIterations() >= Opts.MinSelfParallelism))
        continue;
      if (V == LoopVerdict::ProvablySerial)
        continue;
      Items.push_back(makePlanItem(Profile, E.Id));
    }
    return finishPlan(name(), std::move(Items), Opts);
  }
};

} // namespace

std::unique_ptr<Personality> kremlin::makeOpenMPPersonality() {
  return std::make_unique<OpenMPPersonality>();
}
std::unique_ptr<Personality> kremlin::makeCilkPersonality() {
  return std::make_unique<CilkPersonality>();
}
std::unique_ptr<Personality> kremlin::makeWorkOnlyPersonality() {
  return std::make_unique<WorkOnlyPersonality>();
}
std::unique_ptr<Personality> kremlin::makeSelfPFilterPersonality() {
  return std::make_unique<SelfPFilterPersonality>();
}

std::unique_ptr<Personality>
kremlin::makePersonality(const std::string &Name) {
  if (Name == "openmp")
    return makeOpenMPPersonality();
  if (Name == "cilk")
    return makeCilkPersonality();
  if (Name == "work")
    return makeWorkOnlyPersonality();
  if (Name == "selfp")
    return makeSelfPFilterPersonality();
  return nullptr;
}

std::string kremlin::printPlan(const Module &M, const Plan &P,
                               size_t MaxRows) {
  std::string Out = formatString(
      "Parallelism plan (personality=%s, est. program speedup %.2fx)\n",
      P.Personality.c_str(), P.EstProgramSpeedup);
  Out += formatString("%-4s %-28s %9s %9s %10s %8s\n", "#", "File (lines)",
                      "Self-P", "Cov (%)", "Type", "Static");
  size_t Rows = std::min(MaxRows, P.Items.size());
  for (size_t I = 0; I < Rows; ++I) {
    const PlanItem &Item = P.Items[I];
    const StaticRegion &R = M.Regions[Item.Region];
    Out += formatString(
        "%-4zu %-28s %9.1f %9.2f %10s %8s\n", I + 1, R.sourceSpan().c_str(),
        Item.SelfP, Item.CoveragePct, loopClassName(Item.Class),
        Item.Static == LoopVerdict::Unknown ? "-"
                                            : loopVerdictName(Item.Static));
  }
  if (P.Items.size() > Rows)
    Out += formatString("... (%zu more)\n", P.Items.size() - Rows);
  return Out;
}

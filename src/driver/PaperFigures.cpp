//===- driver/PaperFigures.cpp --------------------------------------------===//

#include "driver/PaperFigures.h"

#include "machine/ExecutionSimulator.h"
#include "suite/PaperSuite.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace kremlin;

namespace {

using Kind = FigureProgram::Kind;

const unsigned CgSweepTimesteps[] = {2, 4, 8, 16, 32};
const unsigned SelfPLoopSizes[] = {8, 32, 128};
const char *const BenefitKeys[] = {"benefit_at_25pct", "benefit_at_50pct",
                                   "benefit_at_75pct", "benefit_at_100pct"};

/// §5.1: each OpenMP threshold moved below and above its published value.
struct ThresholdSweep {
  const char *Param;
  double PlannerOptions::*Field;
  const char *Low, *Paper, *High; ///< As the table prints them.
  const char *LowKey, *HighKey;   ///< "plan_size_at_<key>".
};
const ThresholdSweep Thresholds[] = {
    {"min self-parallelism", &PlannerOptions::MinSelfParallelism, "4.0",
     "5.0", "6.5", "min_sp_4", "min_sp_6_5"},
    {"min DOALL speedup %", &PlannerOptions::MinDoallSpeedupPct, "0.05",
     "0.1", "0.2", "min_doall_0_05", "min_doall_0_2"},
    {"min DOACROSS speedup %", &PlannerOptions::MinDoacrossSpeedupPct, "2.0",
     "3.0", "4.5", "min_doacross_2", "min_doacross_4_5"},
};

std::string selfPLoopName(bool Serial, unsigned N) {
  return formatString("%s_n%u", Serial ? "serial" : "parallel", N);
}

/// Fig. 5's loops: n children that must run serially (each iteration
/// extends the previous one's chain through c), or n independent ones.
std::string selfPLoopSource(bool Serial, unsigned N) {
  if (Serial)
    return formatString(R"(
      int a[%u];
      int main() {
        int c = 3;
        for (int i = 1; i < %u; i = i + 1) {
          c = c * 3 + c / (c %% 7 + 2);
          c = c + c / 5 - c %% 13;
          c = c * 2 - c / (c %% 5 + 3);
          c = c + c %% 17 + 1;
          c = c * 3 + c / 9;
          c = c - c / (c %% 3 + 2);
          a[i] = c;
        }
        return a[%u] %% 100;
      }
    )", N + 1, N + 1, N);
  return formatString(R"(
      int a[%u];
      int main() {
        for (int i = 0; i < %u; i = i + 1) {
          a[i] = i * 3 + i / 7 + i %% 13 + 1;
        }
        return a[%u] %% 100;
      }
    )", N, N, N - 1);
}

/// Fig. 7's row: each region's marginal share of serial time removed, a
/// '|' where Kremlin's plan ends, and the total.
std::string marginalSeries(const std::string &Name,
                           const std::vector<double> &Cum, size_t PlanCount) {
  std::string Row = formatString("%-8s", Name.c_str());
  double Prev = 0.0;
  for (size_t I = 0; I < Cum.size(); ++I) {
    if (I == PlanCount)
      Row += " |";
    Row += formatString(" %5.1f", (Cum[I] - Prev) * 100.0);
    Prev = Cum[I];
    if (I >= 19 && Cum.size() > 22 && I + 3 < Cum.size()) {
      Row += formatString(" ... (%zu more)", Cum.size() - I - 1);
      break;
    }
  }
  return Row + formatString("   [total %.1f%%]\n",
                            (Cum.empty() ? 0.0 : Cum.back()) * 100.0);
}

/// A suite benchmark's run: every per-benchmark figure that reads only
/// this profile.
void addBenchmarkFigures(const std::string &Name,
                         const GeneratedBenchmark &GB, const DriverResult &R,
                         const std::string &PersonalityName, MetricMap &Out,
                         Listings &Text) {
  auto Metric = [&](const std::string &Key, double V) {
    Out[Name + "." + Key] = V;
  };
  const DictionaryCompressor &Dict = *R.Dict;
  const ParallelismProfile &Profile = *R.Profile;

  // §4.4: the run's region summaries, raw and dictionary-compressed.
  Metric("dyn_instructions", static_cast<double>(R.Exec.DynInstructions));
  Metric("dyn_regions", static_cast<double>(Dict.numDynamicRegions()));
  Metric("raw_trace_bytes", static_cast<double>(Dict.rawTraceBytes()));
  Metric("compressed_bytes", static_cast<double>(Dict.compressedBytes()));
  Metric("compression_ratio", Dict.compressionRatio());
  Metric("dict_alphabet", static_cast<double>(Dict.alphabet().size()));

  // Fig. 6(a): Kremlin's plan against the MANUAL parallelization.
  std::vector<RegionId> Manual = loopRegionsAtLines(*R.M, GB.manualLines());
  std::vector<RegionId> Planned = R.ThePlan.regionIds();
  std::set<RegionId> ManualSet(Manual.begin(), Manual.end());
  std::set<RegionId> PlanSet(Planned.begin(), Planned.end());
  unsigned Overlap = 0;
  for (RegionId Region : PlanSet)
    Overlap += ManualSet.count(Region);
  Metric("plan_size", static_cast<double>(PlanSet.size()));
  Metric("manual_plan_size", static_cast<double>(ManualSet.size()));
  Metric("plan_overlap", Overlap);
  Metric("est_speedup", R.ThePlan.EstProgramSpeedup);
  double MaxSp = 1.0;
  for (const RegionProfileEntry &E : Profile.entries())
    if (E.Executed)
      MaxSp = std::max(MaxSp, E.SelfParallelism);
  Metric("max_self_parallelism", MaxSp);

  // Fig. 6(b): both plans on the machine model, each at its best core
  // count.
  ExecutionSimulator Sim(Profile);
  SimOutcome KremlinOut = Sim.evaluatePlan(Planned);
  SimOutcome ManualOut = Sim.evaluatePlan(Manual);
  Metric("sim_speedup", KremlinOut.speedup());
  Metric("sim_best_cores", KremlinOut.BestCores);
  Metric("manual_sim_speedup", ManualOut.speedup());
  Metric("manual_sim_best_cores", ManualOut.BestCores);
  Metric("relative_speedup", KremlinOut.speedup() / ManualOut.speedup());

  // Fig. 7: serial time removed as the plan is applied in order, then the
  // MANUAL-only regions Kremlin filtered out.
  std::vector<RegionId> Ordered = Planned;
  for (RegionId Region : Manual)
    if (!PlanSet.count(Region))
      Ordered.push_back(Region);
  std::vector<double> Cum = Sim.cumulativeTimeReduction(Ordered);
  size_t PlanCount = Planned.size();
  Metric("total_time_reduction_pct", (Cum.empty() ? 0.0 : Cum.back()) * 100.0);
  Metric("kremlin_plan_reduction_pct",
         PlanCount == 0 || Cum.empty() ? 0.0 : Cum[PlanCount - 1] * 100.0);
  Text[Name + ".fig7"] = marginalSeries(Name, Cum, PlanCount);

  // Fig. 8: the share of the plan's reduction its first quarters attain.
  if (PlanCount > 0 && !Cum.empty() && Cum[PlanCount - 1] > 0.0) {
    for (int Q = 0; Q < 4; ++Q) {
      size_t K = static_cast<size_t>(std::ceil(PlanCount * (Q + 1) / 4.0));
      K = std::min(std::max<size_t>(K, 1), PlanCount);
      Metric(BenefitKeys[Q], 100.0 * Cum[K - 1] / Cum[PlanCount - 1]);
    }
  }

  // Fig. 9 and the ablation replan the profile under the planner settings
  // the driver's plan used; §5.1 moves one threshold at a time.
  PlannerOptions Paper;
  Paper.StaticVerdicts = R.Static.verdictMap();
  Metric("candidate_regions", R.M->numCandidateRegions());
  Metric("work_only_plan_size", static_cast<double>(
      makeWorkOnlyPersonality()->plan(Profile, Paper).Items.size()));
  Metric("selfp_filter_plan_size", static_cast<double>(
      makeSelfPFilterPersonality()->plan(Profile, Paper).Items.size()));

  std::unique_ptr<Personality> P = makePersonality(PersonalityName);
  for (const ThresholdSweep &T : Thresholds)
    for (auto [Setting, Key] : {std::pair{T.Low, T.LowKey},
                                std::pair{T.High, T.HighKey}}) {
      PlannerOptions Moved = Paper;
      Moved.*T.Field = std::stod(Setting);
      Metric(std::string("plan_size_at_") + Key,
             static_cast<double>(P->plan(Profile, Moved).Items.size()));
    }

  // §6.2: regions below the 5.0 threshold by total vs self-parallelism.
  // Unexecuted regions have no observed parallelism at all.
  unsigned Regions = 0, LowTp = 0, LowSp = 0;
  for (const RegionProfileEntry &E : Profile.entries()) {
    if (R.M->Regions[E.Id].Kind == RegionKind::Body)
      continue;
    ++Regions;
    LowTp += !E.Executed || E.TotalParallelism < 5.0;
    LowSp += !E.Executed || E.SelfParallelism < 5.0;
  }
  Metric("regions", Regions);
  Metric("low_by_total_parallelism", LowTp);
  Metric("low_by_self_parallelism", LowSp);

  // Planner ablation: §5.1's greedy selection instead of the DP, and the
  // Cilk++ personality, on the same profile.
  PlannerOptions Greedy = Paper;
  Greedy.Greedy = true;
  Plan GreedyPlan = makeOpenMPPersonality()->plan(Profile, Greedy);
  Metric("greedy_plan_size", static_cast<double>(GreedyPlan.Items.size()));
  Metric("greedy_sim_speedup",
         Sim.evaluatePlan(GreedyPlan.regionIds()).speedup());
  Metric("cilk_plan_size", static_cast<double>(
      makeCilkPersonality()->plan(Profile, Paper).Items.size()));
}

/// Figs. 2–3 on the tracking run: the plan's top rows, and total vs self
/// parallelism down the fillFeatures nest.
void addTrackingFigures(const DriverResult &R, MetricMap &Out,
                        Listings &Text) {
  auto Metric = [&](const std::string &Key, double V) {
    Out["tracking." + Key] = V;
  };
  const std::vector<PlanItem> &Items = R.ThePlan.Items;
  Metric("dyn_instructions", static_cast<double>(R.Exec.DynInstructions));
  Metric("plan_size", static_cast<double>(Items.size()));
  for (size_t I = 0; I < std::min<size_t>(5, Items.size()); ++I) {
    Metric(formatString("rank%zu_self_parallelism", I + 1), Items[I].SelfP);
    Metric(formatString("rank%zu_coverage_pct", I + 1), Items[I].CoveragePct);
  }

  TablePrinter Fig2;
  Fig2.setHeader({"region", "total-par (CPA)", "self-par (HCPA)"});
  unsigned Loop = 0;
  for (const RegionProfileEntry &E : R.Profile->entries()) {
    const StaticRegion &Region = R.M->Regions[E.Id];
    if (!E.Executed || Region.Kind != RegionKind::Loop ||
        R.M->Functions[Region.Func].Name != "fillFeatures")
      continue;
    ++Loop;
    Metric(formatString("fill_loop%u_total_parallelism", Loop),
           E.TotalParallelism);
    Metric(formatString("fill_loop%u_self_parallelism", Loop),
           E.SelfParallelism);
    Fig2.addRow({Region.sourceSpan(), formatFixed(E.TotalParallelism, 1),
                 formatFixed(E.SelfParallelism, 1)});
  }
  Text["tracking.fig2"] = Fig2.render();
  Text["tracking.fig3"] = printPlan(*R.M, R.ThePlan, 10);
}

} // namespace

std::vector<FigureProgram>
kremlin::figurePrograms(const std::vector<std::string> &Benchmarks,
                        bool FullSuite) {
  const std::vector<std::string> &Known = paperBenchmarkNames();
  std::vector<FigureProgram> Programs;
  Programs.reserve(2 * Benchmarks.size());
  for (const std::string &Name : Benchmarks)
    Programs.push_back({Kind::Benchmark, Name, 0});
  // An unknown name fails as a Benchmark run; it gets no ref input.
  for (const std::string &Name : Benchmarks)
    if (std::find(Known.begin(), Known.end(), Name) != Known.end())
      Programs.push_back({Kind::RefInput, Name, 0});
  if (!FullSuite)
    return Programs;
  Programs.push_back({Kind::Tracking, "tracking", 0});
  for (unsigned N : SelfPLoopSizes)
    for (bool Serial : {true, false})
      Programs.push_back({Kind::SelfPLoop, selfPLoopName(Serial, N), N});
  for (unsigned T : CgSweepTimesteps)
    if (T != paperBenchmarkSpec("cg").Timesteps)
      Programs.push_back({Kind::CgTimesteps, formatString("cg_t%u", T), T});
  return Programs;
}

Expected<GeneratedBenchmark> kremlin::figureSource(const FigureProgram &P) {
  GeneratedBenchmark GB;
  switch (P.K) {
  case Kind::Benchmark:
    return tryGeneratePaperBenchmark(P.Name);
  case Kind::RefInput: {
    BenchmarkSpec Spec = paperBenchmarkSpec(P.Name);
    Spec.Timesteps *= 4;
    return generateBenchmark(Spec);
  }
  case Kind::CgTimesteps: {
    BenchmarkSpec Spec = paperBenchmarkSpec("cg");
    Spec.Timesteps = P.Param;
    return generateBenchmark(Spec);
  }
  case Kind::Tracking:
    GB.Name = "tracking";
    GB.Source = trackingSource();
    break;
  case Kind::SelfPLoop:
    GB.Name = "fig5";
    GB.Source = selfPLoopSource(P.Name.rfind("serial", 0) == 0, P.Param);
    break;
  }
  return GB;
}

void kremlin::addRunFigures(const FigureProgram &P,
                            const GeneratedBenchmark &GB,
                            const DriverResult &R,
                            const std::string &Personality, MetricMap &Out,
                            Listings &Text) {
  auto Metric = [&](const std::string &Key, double V) {
    Out[P.Name + "." + Key] = V;
  };
  switch (P.K) {
  case Kind::Benchmark:
    addBenchmarkFigures(P.Name, GB, R, Personality, Out, Text);
    break;
  case Kind::RefInput:
    break;
  case Kind::CgTimesteps:
    Metric("dyn_regions", static_cast<double>(R.Dict->numDynamicRegions()));
    Metric("raw_trace_bytes", static_cast<double>(R.Dict->rawTraceBytes()));
    Metric("compressed_bytes",
           static_cast<double>(R.Dict->compressedBytes()));
    Metric("compression_ratio", R.Dict->compressionRatio());
    break;
  case Kind::Tracking:
    addTrackingFigures(R, Out, Text);
    break;
  case Kind::SelfPLoop:
    for (const RegionProfileEntry &E : R.Profile->entries())
      if (R.M->Regions[E.Id].Kind == RegionKind::Loop && E.Executed) {
        Metric("self_parallelism", E.SelfParallelism);
        Metric("iterations", E.avgIterations());
        break;
      }
    break;
  }
}

void kremlin::addInputSensitivity(const std::string &Name,
                                  const DriverResult &Train,
                                  const DriverResult &Ref, MetricMap &Out) {
  // The generated sources differ only in the time-step literal, so the
  // train plan's loops sit at the same lines in the ref module.
  std::vector<unsigned> Lines;
  Lines.reserve(Train.ThePlan.Items.size());
  for (const PlanItem &I : Train.ThePlan.Items)
    Lines.push_back(Train.M->Regions[I.Region].StartLine);
  ExecutionSimulator Sim(*Ref.Profile);
  double TrainOnRef =
      Sim.evaluatePlan(loopRegionsAtLines(*Ref.M, Lines)).speedup();
  double RefNative = Sim.evaluatePlan(Ref.ThePlan.regionIds()).speedup();
  Out[Name + ".ref_plan_size"] = static_cast<double>(Ref.ThePlan.Items.size());
  Out[Name + ".ref_sim_speedup"] = RefNative;
  Out[Name + ".train_on_ref_sim_speedup"] = TrainOnRef;
  Out[Name + ".train_on_ref_ratio"] =
      RefNative > 0 ? TrainOnRef / RefNative : 1.0;
}

void kremlin::addSuiteFigures(const std::vector<std::string> &Benchmarks,
                              MetricMap &Metrics) {
  // Per-benchmark values of \p Key, in benchmark order (summation order
  // fixes the last bit of a float sum).
  auto Values = [&](const std::string &Key) {
    const std::string Suffix = "." + Key;
    std::vector<double> V;
    for (const std::string &B : Benchmarks)
      if (auto It = Metrics.find(B + Suffix); It != Metrics.end())
        V.push_back(It->second);
    return V;
  };
  auto Sum = [](const std::vector<double> &V) {
    double S = 0.0;
    for (double X : V)
      S += X;
    return S;
  };
  auto Set = [&](const std::string &Key, double V) {
    Metrics["suite." + Key] = V;
  };
  if (Values("plan_size").empty())
    return; // Every benchmark failed: nothing to aggregate.

  std::vector<std::string> Sums = {
      "manual_plan_size", "plan_size", "plan_overlap", "regions",
      "low_by_total_parallelism", "low_by_self_parallelism"};
  for (const ThresholdSweep &T : Thresholds)
    for (const char *Key : {T.LowKey, T.HighKey})
      Sums.push_back(std::string("plan_size_at_") + Key);
  for (const std::string &Key : Sums)
    Set(Key, Sum(Values(Key)));

  Set("plan_reduction", Metrics["suite.manual_plan_size"] /
                            std::max(1.0, Metrics["suite.plan_size"]));
  double Regions = Metrics["suite.regions"];
  double LowTp = Metrics["suite.low_by_total_parallelism"];
  double LowSp = Metrics["suite.low_by_self_parallelism"];
  Set("low_by_total_parallelism_pct", 100.0 * LowTp / Regions);
  Set("low_by_self_parallelism_pct", 100.0 * LowSp / Regions);
  Set("self_vs_total_low_ratio", LowSp / LowTp);

  std::vector<double> Relative = Values("relative_speedup");
  double Product = 1.0;
  for (double R : Relative)
    Product *= R;
  Set("relative_speedup_geomean", std::pow(Product, 1.0 / Relative.size()));

  std::vector<double> Ratios = Values("compression_ratio");
  Set("compression_ratio_avg", Sum(Ratios) / Ratios.size());

  for (const char *Key : BenefitKeys) {
    std::vector<double> V = Values(Key);
    Set(Key, Sum(V) / std::max<size_t>(1, V.size()));
  }

  // Fig. 9: each planner's plan as a share of all candidate regions.
  double Work = 0.0, SelfP = 0.0, Full = 0.0;
  unsigned Count = 0;
  for (const std::string &B : Benchmarks) {
    auto It = Metrics.find(B + ".candidate_regions");
    if (It == Metrics.end() || It->second == 0.0)
      continue;
    Work += 100.0 * Metrics[B + ".work_only_plan_size"] / It->second;
    SelfP += 100.0 * Metrics[B + ".selfp_filter_plan_size"] / It->second;
    Full += 100.0 * Metrics[B + ".plan_size"] / It->second;
    ++Count;
  }
  Set("work_only_plan_pct", Work / Count);
  Set("selfp_filter_plan_pct", SelfP / Count);
  Set("full_planner_plan_pct", Full / Count);
}

std::string kremlin::renderFigures(
    const std::vector<std::string> &Benchmarks, const MetricMap &Metrics,
    const Listings &Text) {
  auto Has = [&](const std::string &Key) { return Metrics.count(Key) != 0; };
  auto Get = [&](const std::string &Key) {
    auto It = Metrics.find(Key);
    return It == Metrics.end() ? 0.0 : It->second;
  };
  auto Int = [&](const std::string &Key) {
    return formatString("%.0f", Get(Key));
  };
  // The benchmarks that ran, in request order.
  std::vector<std::string> Ran;
  for (const std::string &B : Benchmarks)
    if (Has(B + ".plan_size"))
      Ran.push_back(B);
  std::string Out;
  auto Section = [&Out](const std::string &Text) {
    Out += (Out.empty() ? "" : "\n") + Text;
  };

  if (auto It = Text.find("tracking.fig2"); It != Text.end())
    Section("Figure 2: localizing parallelism in fillFeatures (classic CPA "
            "vs HCPA)\n\n" +
            It->second +
            "\npaper: CPA reports parallelism in every enclosing loop; "
            "self-parallelism pins it to the innermost k loop\n");
  if (auto It = Text.find("tracking.fig3"); It != Text.end())
    Section("Figure 3: Kremlin UI on the feature-tracking benchmark\n\n"
            "$> make CC=kremlin-cc\n$> ./tracking data\n"
            "$> kremlin tracking --personality=openmp\n\n" +
            It->second +
            "\npaper top rows: imageBlur 145.3/9.7, imageBlur 145.3/8.7, "
            "getInterpPatch 25.3/8.86,\ncalcSobel_dX 126.2/8.1, "
            "calcSobel_dX 126.2/8.1\n");

  if (Has("serial_n8.self_parallelism")) {
    TablePrinter T;
    T.setHeader({"case", "children n", "measured SP", "expected"});
    for (unsigned N : SelfPLoopSizes)
      for (bool Serial : {true, false}) {
        std::string P = selfPLoopName(Serial, N) + ".";
        T.addRow({formatString("%s children (n=%u)",
                               Serial ? "serial" : "parallel", N),
                  formatFixed(Get(P + "iterations"), 0),
                  formatFixed(Get(P + "self_parallelism"), 2),
                  Serial ? "= 1" : formatString("~ %u", N)});
      }
    Section("Figure 5: self-parallelism worked examples\n\n" + T.render() +
            "\npaper: SP(serial) = n*cp / (n*cp) = 1;  "
            "SP(parallel) = n*cp / cp = n\n");
  }

  if (Ran.empty())
    return Out;

  {
    TablePrinter T;
    T.setHeader({"Benchmark", "MANUAL", "Kremlin", "Overlap", "Reduction",
                 "paper:M", "paper:K", "paper:O"});
    unsigned PaperM = 0, PaperK = 0, PaperO = 0;
    for (const std::string &B : Ran) {
      double Kremlin = Get(B + ".plan_size");
      PaperFacts Facts = paperFacts(B);
      PaperM += Facts.ManualPlanSize;
      PaperK += Facts.KremlinPlanSize;
      PaperO += Facts.Overlap;
      T.addRow({B, Int(B + ".manual_plan_size"), Int(B + ".plan_size"),
                Int(B + ".plan_overlap"),
                formatFactor(Kremlin == 0.0
                                 ? 0.0
                                 : Get(B + ".manual_plan_size") / Kremlin),
                formatString("%u", Facts.ManualPlanSize),
                formatString("%u", Facts.KremlinPlanSize),
                formatString("%u", Facts.Overlap)});
    }
    T.addSeparator();
    T.addRow({"Overall", Int("suite.manual_plan_size"),
              Int("suite.plan_size"), Int("suite.plan_overlap"),
              formatFactor(Get("suite.plan_reduction")),
              formatString("%u", PaperM), formatString("%u", PaperK),
              formatString("%u", PaperO)});
    Section("Figure 6(a): plan size comparison (measured vs paper)\n\n" +
            T.render() +
            "\npaper overall: MANUAL 211, Kremlin 134, overlap 116, "
            "reduction 1.57x\n");
  }

  {
    TablePrinter T;
    T.setHeader({"Benchmark", "Kremlin x", "cores", "MANUAL x", "cores",
                 "Relative", "paper:Rel"});
    for (const std::string &B : Ran)
      T.addRow({B, formatFactor(Get(B + ".sim_speedup")),
                Int(B + ".sim_best_cores"),
                formatFactor(Get(B + ".manual_sim_speedup")),
                Int(B + ".manual_sim_best_cores"),
                formatFactor(Get(B + ".relative_speedup")),
                formatFactor(paperFacts(B).RelativeSpeedup)});
    T.addSeparator();
    T.addRow({"geomean", "", "", "", "",
              formatFactor(Get("suite.relative_speedup_geomean")), ""});
    Section("Figure 6(b): Kremlin vs MANUAL speedup (measured vs paper)\n\n" +
            T.render() +
            "\npaper shape: sp 1.85x and is 1.46x in Kremlin's favor; "
            "others within ~3.8% of MANUAL; absolute speedups between "
            "1.5x and 25.89x\n");
  }

  {
    std::string Rows;
    for (const std::string &B : Ran)
      if (auto It = Text.find(B + ".fig7"); It != Text.end())
        Rows += It->second;
    Section("Figure 7: marginal time reduction per parallelized region\n"
            "(cumulative % of serial execution time removed; '|' marks the "
            "end of Kremlin's plan)\n\n" +
            Rows +
            "\npaper shape: regions right of the dotted line (MANUAL-only) "
            "add negligible benefit;\nmarginals are mostly decreasing but "
            "noisy (NUMA migration amortizes as coverage grows)\n");
  }

  {
    TablePrinter T;
    T.setHeader({"Benchmark", "25%", "50%", "75%", "100%"});
    for (const std::string &B : Ran) {
      if (!Has(B + "." + BenefitKeys[0]))
        continue;
      std::vector<std::string> Row = {B};
      for (const char *Key : BenefitKeys)
        Row.push_back(formatPercent(Get(B + "." + Key), 1));
      T.addRow(Row);
    }
    T.addSeparator();
    std::vector<std::string> Avg = {"average benefit"};
    std::vector<std::string> Marginal = {"marginal avg benefit"};
    double Prev = 0.0;
    for (const char *Key : BenefitKeys) {
      double A = Get(std::string("suite.") + Key);
      Avg.push_back(formatPercent(A, 1));
      Marginal.push_back(formatPercent(A - Prev, 1));
      Prev = A;
    }
    T.addRow(Avg);
    T.addRow(Marginal);
    Section("Figure 8: marginal benefit of region parallelization\n\n" +
            T.render() +
            "\npaper: average benefit 56.2 / 86.4 / 95.6 / 100.0  "
            "(marginal 56.2 / 30.2 / 9.2 / 4.4)\n");
  }

  {
    TablePrinter T;
    T.setHeader({"Benchmark", "regions", "work %", "self-P %", "planner %"});
    for (const std::string &B : Ran) {
      double Total = Get(B + ".candidate_regions");
      if (Total == 0.0)
        continue;
      T.addRow({B, Int(B + ".candidate_regions"),
                formatFixed(100.0 * Get(B + ".work_only_plan_size") / Total, 1),
                formatFixed(100.0 * Get(B + ".selfp_filter_plan_size") / Total,
                            1),
                formatFixed(100.0 * Get(B + ".plan_size") / Total, 1)});
    }
    T.addSeparator();
    T.addRow({"average", "", formatFixed(Get("suite.work_only_plan_pct"), 1),
              formatFixed(Get("suite.selfp_filter_plan_pct"), 1),
              formatFixed(Get("suite.full_planner_plan_pct"), 1)});
    Section("Figure 9: plan size reduction by planning component\n\n" +
            T.render() +
            "\npaper averages: work-only ~58.9%, + self-parallelism 25.4%, "
            "full planner 3.0%\n");
  }

  {
    auto Bytes = [&](const std::string &Key) {
      return formatBytes(static_cast<uint64_t>(Get(Key)));
    };
    TablePrinter T;
    T.setHeader({"Benchmark", "dyn regions", "raw", "compressed", "ratio",
                 "alphabet"});
    for (const std::string &B : Ran)
      T.addRow({B, Int(B + ".dyn_regions"), Bytes(B + ".raw_trace_bytes"),
                Bytes(B + ".compressed_bytes"),
                formatFactor(Get(B + ".compression_ratio"), 0),
                Int(B + ".dict_alphabet")});
    T.addSeparator();
    T.addRow({"average", "", "", "",
              formatFactor(Get("suite.compression_ratio_avg"), 0), ""});
    std::string Text =
        "Section 4.4: dictionary compression of region summaries\n\n" +
        T.render();
    if (Has("cg.dyn_regions") && Has("cg_t2.dyn_regions")) {
      TablePrinter Sweep;
      Sweep.setHeader(
          {"timesteps", "dyn regions", "raw", "compressed", "ratio"});
      for (unsigned Steps : CgSweepTimesteps) {
        std::string P = Steps == paperBenchmarkSpec("cg").Timesteps
                            ? "cg."
                            : formatString("cg_t%u.", Steps);
        Sweep.addRow({formatString("%u", Steps), Int(P + "dyn_regions"),
                      Bytes(P + "raw_trace_bytes"),
                      Bytes(P + "compressed_bytes"),
                      formatFactor(Get(P + "compression_ratio"), 0)});
      }
      Text += "\nscaling with input size (benchmark 'cg', time steps "
              "swept):\n" +
              Sweep.render();
    }
    Section(Text + "\npaper (full W inputs): raw 750MB-54GB (avg 17.9GB) -> "
                   "5KB-774KB (avg 150KB), ~119,000x\n");
  }

  {
    TablePrinter T;
    T.setHeader({"Benchmark", "regions", "low by TP", "low by SP"});
    for (const std::string &B : Ran)
      T.addRow({B, Int(B + ".regions"), Int(B + ".low_by_total_parallelism"),
                Int(B + ".low_by_self_parallelism")});
    T.addSeparator();
    T.addRow({"total", Int("suite.regions"),
              formatString("%.0f (%.1f%%)",
                           Get("suite.low_by_total_parallelism"),
                           Get("suite.low_by_total_parallelism_pct")),
              formatString("%.0f (%.1f%%)",
                           Get("suite.low_by_self_parallelism"),
                           Get("suite.low_by_self_parallelism_pct"))});
    Section("Section 6.2: self-parallelism vs total-parallelism "
            "classification (threshold 5.0)\n\n" +
            T.render() +
            formatString("\nself-parallelism flags %.2fx more regions as "
                         "low-parallelism than total-parallelism\n",
                         Get("suite.self_vs_total_low_ratio")) +
            "paper: 2535 regions; low by total-parallelism 25.8%, low by "
            "self-parallelism 58.9% (2.28x)\n");
  }

  {
    TablePrinter T;
    T.setHeader({"Benchmark", "train plan", "ref plan", "train-on-ref x",
                 "ref-native x", "ratio"});
    for (const std::string &B : Ran)
      if (Has(B + ".train_on_ref_ratio"))
        T.addRow({B, Int(B + ".plan_size"), Int(B + ".ref_plan_size"),
                  formatFactor(Get(B + ".train_on_ref_sim_speedup")),
                  formatFactor(Get(B + ".ref_sim_speedup")),
                  formatFactor(Get(B + ".train_on_ref_ratio"))});
    Section("Section 6.1: input sensitivity (train-input plan evaluated on "
            "the ref input)\n\n" +
            T.render() +
            "\npaper: plans from the train input remained equally "
            "competitive on the ref input\n(ratios ~1.0 mean the plan "
            "transfers across input sizes)\n");
  }

  {
    TablePrinter T;
    T.setHeader({"parameter", "low", "paper", "high", "plan@low",
                 "plan@paper", "plan@high"});
    for (const ThresholdSweep &S : Thresholds)
      T.addRow({S.Param, S.Low, S.Paper, S.High,
                Int(std::string("suite.plan_size_at_") + S.LowKey),
                Int("suite.plan_size"),
                Int(std::string("suite.plan_size_at_") + S.HighKey)});
    Section("Section 5.1: planner threshold sensitivity (suite-wide plan "
            "size; published setting = 134)\n\n" +
            T.render() +
            "\npaper: \"Kremlin is not particularly sensitive to minor "
            "variations in the settings of these parameters\"\n");
  }

  {
    TablePrinter T;
    T.setHeader({"Benchmark", "DP size", "DP x", "greedy size", "greedy x",
                 "cilk size"});
    for (const std::string &B : Ran)
      T.addRow({B, Int(B + ".plan_size"),
                formatFactor(Get(B + ".sim_speedup")),
                Int(B + ".greedy_plan_size"),
                formatFactor(Get(B + ".greedy_sim_speedup")),
                Int(B + ".cilk_plan_size")});
    Section("Planner ablations (DP vs greedy; OpenMP vs Cilk++)\n\n" +
            T.render() +
            "\npaper: greedy misplans ft and lu (parent chosen over its "
            "children); Cilk++ accepts nested, finer-grained regions\n");
  }
  return Out;
}

//===- perfbench/src/StaticLint.cpp - static-lint workload ----------------===//
//
// KremlinDriver::lintSource over a few large seeded BenchmarkSpec programs:
// parser, ir, instrument and analysis on big modules, never executing.
// Front-end gains show here; execute changes must read "no change".
//
// Each program has SitesPerKind sites of every SiteKind in a seeded order,
// with seeded iteration counts and a fixed multiset of body sizes, so the
// seed changes which loops sit next to which (and the digits in the
// source) while every seed's programs stay the same size. Soundness is
// checked against the generator's ground truth: no ProvablyDoall verdict on
// a loop that carries a dependence, no ProvablySerial on a DOALL loop.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Replica.h"

#include "suite/SourceGenerator.h"
#include "support/Prng.h"

#include <cinttypes>
#include <cstdio>

using namespace kremlin;

namespace kbench {
namespace {

/// An odd count: with an even one the median latency falls between the
/// slower and the faster half of the programs and flips between them from
/// run to run (10-seed spread 0.21-0.23 with 6 programs).
constexpr unsigned NumPrograms = 5;
constexpr unsigned SitesPerKind = 30;
constexpr unsigned NumKinds = 10; // SiteKind::HotDoall .. ChildrenNest
constexpr unsigned SetupReps = 5;
/// One untraced pass over the programs takes about this long on a 4-vCPU VM
/// (GCC 12, Release); a run of S seconds makes S / NominalPassS passes.
constexpr double NominalPassS = 0.33;

/// What the generator guarantees about one loop.
enum class Truth : unsigned char { Doall, Carried, Other };

struct LintInput {
  std::string Name;
  std::string Source;
  std::map<unsigned, Truth> TruthByLine;
  /// fnv1a of the verdicts the set-up pass produced; every later pass must
  /// reproduce them exactly.
  uint64_t VerdictHash = 0;
};

template <typename T> void shuffle(std::vector<T> &V, Prng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

BenchmarkSpec lintSpec(uint64_t Seed, unsigned Program) {
  Prng R(fnv1a("static-lint", Seed * 0x9e3779b97f4a7c15ULL + Program));
  BenchmarkSpec S;
  S.Name = "lint" + std::to_string(Program);
  S.Timesteps = 4;
  // One kernel size for every program: programs of equal cost keep the
  // median latency inside one cluster instead of between two.
  S.SitesPerKernel = 4;
  const unsigned N = SitesPerKind * NumKinds;
  std::vector<SiteKind> Kinds;
  std::vector<unsigned> Work, Inner;
  for (unsigned I = 0; I < N; ++I) {
    Kinds.push_back(static_cast<SiteKind>(I % NumKinds));
    Work.push_back(1 + I % 12);
    Inner.push_back(1 + I % 3);
  }
  shuffle(Kinds, R);
  shuffle(Work, R);
  shuffle(Inner, R);
  for (unsigned I = 0; I < N; ++I) {
    SiteSpec Site;
    Site.Kind = Kinds[I];
    Site.Iters = 16 + static_cast<unsigned>(R.nextBelow(497));
    Site.Work = Work[I];
    Site.InnerCount = Inner[I];
    Site.InnerIters = 8 + static_cast<unsigned>(R.nextBelow(57));
    Site.InnerDoacross = R.nextBool(0.5);
    S.Sites.push_back(Site);
  }
  return S;
}

Truth truthOf(const GeneratedLoop &L, const SiteSpec &Site) {
  switch (L.Kind) {
  case SiteKind::HotDoall:
  case SiteKind::SmallDoall:
  case SiteKind::ColdDoall:
    return Truth::Doall;
  case SiteKind::Doacross:
  case SiteKind::SerialChain:
  case SiteKind::IlpSerial:
    return Truth::Carried;
  case SiteKind::CoarseNest:
    return L.IsOuter || !Site.InnerDoacross ? Truth::Doall : Truth::Carried;
  case SiteKind::ChildrenNest:
    return L.IsOuter ? Truth::Carried : Truth::Doall;
  case SiteKind::ReductionHeavy:
  case SiteKind::ReductionLight:
    return Truth::Other;
  }
  return Truth::Other;
}

/// Checks one lint result: it succeeded, every verdict respects the
/// generator's ground truth, and the verdicts equal the set-up pass's.
/// Returns the number of loop verdicts.
uint64_t check(const DriverResult &Res, const LintInput &In, Report &R) {
  ++R.Attempted;
  if (!Res.succeeded()) {
    R.fail(In.Name + ": lint error: " + Res.Errors.front());
    return 0;
  }
  for (const StaticLoopResult &L : Res.Static.Loops) {
    if (L.Region == NoRegion)
      continue;
    auto It = In.TruthByLine.find(Res.M->Regions[L.Region].StartLine);
    if (It == In.TruthByLine.end())
      continue;
    if ((It->second == Truth::Carried &&
         L.Verdict == LoopVerdict::ProvablyDoall) ||
        (It->second == Truth::Doall &&
         L.Verdict == LoopVerdict::ProvablySerial)) {
      R.fail(In.Name + ": unsound verdict '" + loopVerdictName(L.Verdict) +
             "' at line " + std::to_string(It->first));
      return Res.Static.Loops.size();
    }
  }
  if (In.VerdictHash && fnv1a(verdictCanon(Res.Static)) != In.VerdictHash)
    R.fail(In.Name + ": verdicts differ from the set-up pass");
  return Res.Static.Loops.size();
}

} // namespace

bool runStaticLint(const Options &O, Report &R) {
  KremlinDriver Driver;
  std::vector<LintInput> Inputs;
  // Set-up: generate the programs and their ground truth, and lint each
  // once to record the verdicts every later pass must reproduce.
  auto SetUp = [&] {
    Inputs.clear();
    for (unsigned P = 0; P < NumPrograms; ++P) {
      BenchmarkSpec Spec = lintSpec(O.Seed, P);
      GeneratedBenchmark G = generateBenchmark(Spec);
      LintInput In;
      In.Name = Spec.Name + ".c";
      In.Source = std::move(G.Source);
      for (const GeneratedLoop &L : G.Loops)
        In.TruthByLine[L.Line] = truthOf(L, Spec.Sites[L.SiteIndex]);
      Inputs.push_back(std::move(In));
    }
    for (LintInput &In : Inputs) {
      DriverResult Res = Driver.lintSource(In.Source, In.Name);
      check(Res, In, R);
      In.VerdictHash = fnv1a(verdictCanon(Res.Static));
    }
  };

  PassBudget Budget(O, NominalPassS, SetupReps);
  Pacer Pace;
  Samples Setups, PacedSetups, Untraced, UntracedPass, PacedPass;
  double TotalLoops = 0, TotalMs = 0;
  unsigned Passes = 0;

  Tracer T;
  Samples TracedProgram, SpanSumPass;
  LayerTimes Layers;
  StaticCounts Counts;

  for (; Budget.more(Passes); ++Passes) {
    if (Budget.setupDue(Passes)) {
      double S = timeS(SetUp);
      Setups.add(S);
      PacedSetups.add(Pace.scale(S));
    }
    std::vector<std::string> Canon;
    double PassMs = 0;
    for (const LintInput &In : Inputs) {
      Clock::time_point T0 = Clock::now();
      DriverResult Res = Driver.lintSource(In.Source, In.Name);
      double Ms = msBetween(T0, Clock::now());
      Untraced.add(Ms);
      PassMs += Ms;
      TotalMs += Ms;
      TotalLoops += static_cast<double>(check(Res, In, R));
      if (O.Trace)
        Canon.push_back(verdictCanon(Res.Static));
    }
    UntracedPass.add(PassMs);
    PacedPass.add(Pace.scale(PassMs));
    if (!O.Trace)
      continue;

    size_t SpanBegin = T.size();
    Counts = StaticCounts();
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const LintInput &In = Inputs[I];
      ReplicaResult RR;
      uint64_t P0 = traceNowUs();
      int64_t Pid = T.open("program", "bench", In.Name);
      replicaStatic(Driver.options(), In.Source, In.Name, &T, Pid, RR);
      T.close(Pid);
      TracedProgram.add(static_cast<double>(traceNowUs() - P0) / 1000.0);
      ++R.Attempted;
      if (!RR.ok()) {
        R.fail(In.Name + ": replica error: " + RR.Error);
        continue;
      }
      if (verdictCanon(RR.Static) != Canon[I])
        R.fail(In.Name + ": traced replica's verdicts differ from "
                         "KremlinDriver's");
      Counts.add(RR);
    }
    SpanSumPass.add(addPass(T, SpanBegin,
                            {"parser.parse", "parser.lower", "ir.verify",
                             "instrument.instrument", "analysis.analyze"},
                            Layers));
    Pace.mark();
  }

  R.line("static-lint: seed %" PRIu64 ", %zu programs x %u sites, %u passes "
         "(untraced target %u) in %.2f s with set-ups",
         O.Seed, Inputs.size(), SitesPerKind * NumKinds, Passes,
         Budget.target(), Budget.elapsedS());
  if (!O.Trace && Passes < Budget.target())
    R.line("CUT SHORT: %.0fx the nominal %.2f s per pass; timings have fewer "
           "samples than on a build of nominal speed",
           PassBudget::CapFactor, NominalPassS);
  R.setupLine(PacedSetups, Setups);
  R.pacedPassLine(PacedPass, Pace);
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
  R.latencyLine("program_ms", Untraced);
  R.latencyLine("pass_ms", UntracedPass);
  R.line("linted_loops_per_s = %.1f 1/s (%.0f loop verdicts in %.1f ms)",
         TotalMs > 0 ? TotalLoops / (TotalMs / 1000.0) : 0, TotalLoops,
         TotalMs);

  if (!O.Trace)
    return true;

  reportStaticLayers(Layers, Counts, R);
  reportOverhead(Untraced, TracedProgram, UntracedPass, SpanSumPass, T.size(),
                 Inputs.size(), R);
  if (!O.TraceOut.empty() && !T.writeChromeJson(O.TraceOut))
    std::fprintf(stderr, "kbench: cannot write trace '%s'\n",
                 O.TraceOut.c_str());
  return true;
}

} // namespace kbench

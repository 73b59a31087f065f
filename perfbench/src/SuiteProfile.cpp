//===- perfbench/src/SuiteProfile.cpp - suite-profile workload ------------===//
//
// The paper's own use: the 11 evaluation programs, one at a time, source ->
// plan through KremlinDriver::runOnSource on one thread. Execute (interp +
// rt) dominates, so execute optimisations show here first.
//
// The seed picks one of NumVariants input variants. Variant 0 is the paper
// suite as published; every other variant scales each site's Iters and
// Work by a factor in [0.95, 1.05], which keeps the region structure and
// bounds how far one seed's cost can drift from another's. Every variant's
// outputs (dynamic instructions, alphabet size, plan) are pinned in the
// golden file, so each seed is checked against the values the seed commit
// produced.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Replica.h"

#include "compress/TraceIO.h"
#include "suite/PaperSuite.h"
#include "support/Prng.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace kremlin;

namespace kbench {
namespace {

constexpr unsigned NumVariants = 64;
constexpr unsigned SetupReps = 5;
/// One untraced pass over the 11 programs takes about this long on a 4-vCPU
/// VM (GCC 12, Release); a run of S seconds makes S / NominalPassS passes.
constexpr double NominalPassS = 1.25;
/// The program whose profile the traced run pushes through the fleet layers.
const char *const FleetProgram = "mg.c";

struct Pinned {
  uint64_t DynInsts = 0;
  uint64_t Alphabet = 0;
  uint64_t PlanSize = 0;
  uint64_t PlanHash = 0;
};

struct SuiteInput {
  std::string Name;
  std::string Source;
  Pinned Expect;
};

unsigned scaled(unsigned V, Prng &R) {
  double F = 0.95 + 0.1 * R.nextDouble();
  return static_cast<unsigned>(std::lround(V * F));
}

BenchmarkSpec variantSpec(const std::string &Name, unsigned Variant) {
  BenchmarkSpec S = paperBenchmarkSpec(Name);
  if (Variant == 0)
    return S;
  Prng R(fnv1a(Name, 0x9e3779b97f4a7c15ULL * (Variant + 1)));
  for (SiteSpec &Site : S.Sites) {
    Site.Iters = std::max(2u, scaled(Site.Iters, R));
    Site.Work = std::max(1u, scaled(Site.Work, R));
  }
  return S;
}

std::string goldenKey(unsigned Variant, const std::string &Name) {
  return std::to_string(Variant) + ":" + Name;
}

bool loadGolden(const std::string &Path, std::map<std::string, Pinned> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Row(Line);
    unsigned Variant = 0;
    std::string Name, Hash;
    Pinned P;
    if (!(Row >> Variant >> Name >> P.DynInsts >> P.Alphabet >> P.PlanSize >>
          Hash))
      return false;
    P.PlanHash = std::strtoull(Hash.c_str(), nullptr, 16);
    Out[goldenKey(Variant, Name)] = P;
  }
  return !Out.empty();
}

Pinned observe(const DriverResult &Res) {
  Pinned P;
  P.DynInsts = Res.Exec.DynInstructions;
  P.Alphabet = Res.Dict ? Res.Dict->alphabet().size() : 0;
  P.PlanSize = Res.ThePlan.Items.size();
  P.PlanHash = fnv1a(planCanon(Res.ThePlan));
  return P;
}

/// Checks one driver result against its pinned outputs.
void check(const DriverResult &Res, const SuiteInput &In, Report &R) {
  ++R.Attempted;
  if (!Res.succeeded()) {
    R.fail(In.Name + ": pipeline error: " + Res.Errors.front());
    return;
  }
  Pinned Got = observe(Res);
  if (Got.DynInsts != In.Expect.DynInsts ||
      Got.Alphabet != In.Expect.Alphabet ||
      Got.PlanSize != In.Expect.PlanSize ||
      Got.PlanHash != In.Expect.PlanHash)
    R.fail(In.Name + ": output differs from the pinned values (insts " +
           std::to_string(Got.DynInsts) + " vs " +
           std::to_string(In.Expect.DynInsts) + ", alphabet " +
           std::to_string(Got.Alphabet) + " vs " +
           std::to_string(In.Expect.Alphabet) + ", plan " +
           std::to_string(Got.PlanSize) + " vs " +
           std::to_string(In.Expect.PlanSize) + ")");
}

/// Per-pass totals of the traced run's execute-side counts (identical on
/// every pass).
struct PassCounts {
  double PlainInsts = 0;
  double RegionEntries = 0, Loads = 0, Stores = 0;
  double ShadowReads = 0, ShadowWrites = 0, ShadowBytesEnd = 0;
  double Alphabet = 0, Interns = 0, Hits = 0, RawBytes = 0, CompBytes = 0;
  double TraceBytes = 0, PlanSize = 0;
};

/// What the traced run compares the replica against: the driver's own
/// products for the same input, in exact text form.
struct DriverCanon {
  std::string Trace, Profile, Plan;
};

DriverCanon canonOf(const DriverResult &Res) {
  DriverCanon C;
  if (Res.succeeded()) {
    C.Trace = writeTrace(*Res.Dict);
    C.Profile = profileCanon(*Res.Profile);
    C.Plan = planCanon(Res.ThePlan);
  }
  return C;
}

} // namespace

bool pinSuiteProfile(const std::string &Path) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << "# suite-profile pinned outputs: variant program dyn_insts "
         "alphabet plan_size plan_hash(fnv1a of the exact plan)\n";
  KremlinDriver Driver;
  for (unsigned V = 0; V < NumVariants; ++V) {
    for (const std::string &Name : paperBenchmarkNames()) {
      GeneratedBenchmark G = generateBenchmark(variantSpec(Name, V));
      DriverResult Res = Driver.runOnSource(G.Source, Name + ".c");
      if (!Res.succeeded()) {
        std::fprintf(stderr, "pin: variant %u %s failed: %s\n", V,
                     Name.c_str(), Res.Errors.front().c_str());
        return false;
      }
      Pinned P = observe(Res);
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%u %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %016" PRIx64
                    "\n",
                    V, Name.c_str(), P.DynInsts, P.Alphabet, P.PlanSize,
                    P.PlanHash);
      Out << Buf;
    }
  }
  return static_cast<bool>(Out);
}

bool runSuiteProfile(const Options &O, Report &R) {
  const unsigned Variant = static_cast<unsigned>(O.Seed % NumVariants);
  std::map<std::string, Pinned> Golden;
  if (!loadGolden(O.Golden, Golden)) {
    std::fprintf(stderr, "kbench: cannot read golden file '%s'\n",
                 O.Golden.c_str());
    return false;
  }

  KremlinDriver Driver;
  std::vector<SuiteInput> Inputs;
  // Set-up: generate the variant's sources, look up their pinned outputs,
  // and run one checked warm-up pass (allocator, page cache, lazy
  // statics) so the measured passes start warm.
  auto SetUp = [&] {
    Inputs.clear();
    for (const std::string &Name : paperBenchmarkNames()) {
      SuiteInput In;
      In.Name = Name + ".c";
      In.Source = generateBenchmark(variantSpec(Name, Variant)).Source;
      auto It = Golden.find(goldenKey(Variant, Name));
      if (It != Golden.end())
        In.Expect = It->second;
      Inputs.push_back(std::move(In));
    }
    for (const SuiteInput &In : Inputs)
      check(Driver.runOnSource(In.Source, In.Name), In, R);
  };

  PassBudget Budget(O, NominalPassS, SetupReps);
  Pacer Pace;
  Samples Setups, PacedSetups, Untraced, UntracedPass, PacedPass;
  double TotalInsts = 0, TotalMs = 0;
  unsigned Passes = 0;

  // Traced-run state.
  Tracer T;
  Samples TracedProgram;
  LayerTimes Layers;
  Samples SpanSumPass, PlainPass;
  StaticCounts Static;
  PassCounts Counts;
  std::vector<DictionaryCompressor> LastProfiles; // the last traced pass's

  for (; Budget.more(Passes); ++Passes) {
    if (Budget.setupDue(Passes)) {
      double S = timeS(SetUp);
      Setups.add(S);
      PacedSetups.add(Pace.scale(S));
    }
    std::vector<DriverCanon> Canon;
    double PassMs = 0;
    for (const SuiteInput &In : Inputs) {
      Clock::time_point T0 = Clock::now();
      DriverResult Res = Driver.runOnSource(In.Source, In.Name);
      double Ms = msBetween(T0, Clock::now());
      Untraced.add(Ms);
      PassMs += Ms;
      TotalMs += Ms;
      TotalInsts += static_cast<double>(Res.Exec.DynInstructions);
      check(Res, In, R);
      if (O.Trace)
        Canon.push_back(canonOf(Res));
    }
    UntracedPass.add(PassMs);
    PacedPass.add(Pace.scale(PassMs));
    if (!O.Trace)
      continue;

    // Traced pass: the replica, one "program" span per input with the
    // layer calls as children.
    size_t SpanBegin = T.size();
    PassCounts C;
    StaticCounts SC;
    std::vector<ReplicaResult> Replicas(Inputs.size());
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const SuiteInput &In = Inputs[I];
      ReplicaResult &RR = Replicas[I];
      uint64_t P0 = traceNowUs();
      int64_t Pid = T.open("program", "bench", In.Name);
      replicaPipeline(Driver.options(), In.Source, In.Name, &T, Pid, RR);
      T.close(Pid);
      TracedProgram.add(static_cast<double>(traceNowUs() - P0) / 1000.0);

      ++R.Attempted;
      if (!RR.ok()) {
        R.fail(In.Name + ": replica error: " + RR.Error);
        continue;
      }
      if (writeTrace(*RR.Dict) != Canon[I].Trace ||
          profileCanon(*RR.Profile) != Canon[I].Profile ||
          planCanon(RR.ThePlan) != Canon[I].Plan)
        R.fail(In.Name + ": traced replica's profile or plan differs from "
                         "KremlinDriver's");

      // Compress round trip, outside the program span: the serialized
      // profile must read back to the same bytes.
      std::string Text = traced(&T, "compress.write", "compress", In.Name, -1,
                                [&] { return writeTrace(*RR.Dict); });
      Expected<DictionaryCompressor> Back =
          traced(&T, "compress.read", "compress", In.Name, -1,
                 [&] { return readTrace(Text); });
      ++R.Attempted;
      if (!Back.ok() || writeTrace(Back.value()) != Text)
        R.fail(In.Name + ": trace round trip changed the profile");

      SC.add(RR);
      C.RegionEntries += static_cast<double>(RR.Stats.DynRegionEntries);
      C.Loads += static_cast<double>(RR.Stats.Loads);
      C.Stores += static_cast<double>(RR.Stats.Stores);
      C.ShadowReads += static_cast<double>(RR.ShadowReads);
      C.ShadowWrites += static_cast<double>(RR.ShadowWrites);
      C.ShadowBytesEnd += static_cast<double>(RR.ShadowBytesEnd);
      C.Alphabet += static_cast<double>(RR.Dict->alphabet().size());
      C.Interns += static_cast<double>(RR.Dict->numDynamicRegions());
      C.Hits += static_cast<double>(RR.Dict->hits());
      C.RawBytes += static_cast<double>(RR.Dict->rawTraceBytes());
      C.CompBytes += static_cast<double>(RR.Dict->compressedBytes());
      C.TraceBytes += static_cast<double>(Text.size());
      C.PlanSize += static_cast<double>(RR.ThePlan.Items.size());
    }

    // Plain-interpreter phase, outside the traced pass so traced and
    // untraced program times compare like with like: the same instrumented
    // modules, run without the runtime.
    double PlainMs = 0;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      if (!Replicas[I].ok())
        continue;
      Clock::time_point T0 = Clock::now();
      ExecResult E = traced(&T, "interp.plain", "interp", Inputs[I].Name, -1,
                            [&] {
                              Interpreter Interp(*Replicas[I].M,
                                                 Driver.options().Interp);
                              return Interp.run(nullptr);
                            });
      PlainMs += msBetween(T0, Clock::now());
      ++R.Attempted;
      if (!E.Ok)
        R.fail(Inputs[I].Name + ": plain run failed: " + E.Error);
      C.PlainInsts += static_cast<double>(E.DynInstructions);
    }
    PlainPass.add(PlainMs);
    Counts = C;
    Static = SC;
    // Fleet uploads share one program's region shapes: merging unrelated
    // programs by region id makes a graph no real fleet produces.
    LastProfiles.clear();
    for (size_t I = 0; I < Inputs.size(); ++I)
      if (Replicas[I].ok() && Inputs[I].Name == FleetProgram)
        LastProfiles.push_back(std::move(*Replicas[I].Dict));
    SpanSumPass.add(addPass(
        T, SpanBegin,
        {"parser.parse", "parser.lower", "ir.verify", "instrument.instrument",
         "analysis.analyze", "rt.profiled", "profile.build", "planner.plan"},
        Layers));
    Pace.mark();
  }

  R.line("suite-profile: variant %u of %u (seed %" PRIu64 "), %zu programs, "
         "%u passes (untraced target %u) in %.2f s with set-ups",
         Variant, NumVariants, O.Seed, Inputs.size(), Passes,
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
  R.line("profiled_insts_per_s = %.0f 1/s (%.0f dynamic instructions in "
         "%.1f ms of pipeline time)",
         TotalMs > 0 ? TotalInsts / (TotalMs / 1000.0) : 0, TotalInsts,
         TotalMs);

  if (!O.Trace)
    return true;

  // The fleet layers on this pass's profiles: push each to an in-process
  // service and view the merge, as a developer would after profiling.
  if (!runFleetLayers(std::move(LastProfiles), O.Seed, T, R))
    return false;

  reportStaticLayers(Layers, Static, R);
  std::map<std::string, double> &L = R.PerLayer;
  double ProfiledMs = layerMs(Layers, "rt.profiled");
  double PlainMs = PlainPass.median();
  L["interp.plain_ms"] = PlainMs;
  L["interp.dyn_insts"] = Counts.PlainInsts;
  L["interp.plain_insts_per_s"] = Counts.PlainInsts / (PlainMs / 1000.0);
  L["rt.profiled_ms"] = ProfiledMs;
  L["rt.hcpa_ms"] = ProfiledMs - PlainMs;
  L["rt.slowdown"] = PlainMs > 0 ? ProfiledMs / PlainMs : 0;
  L["rt.dyn_region_entries"] = Counts.RegionEntries;
  L["rt.loads"] = Counts.Loads;
  L["rt.stores"] = Counts.Stores;
  L["rt.shadow_reads"] = Counts.ShadowReads;
  L["rt.shadow_writes"] = Counts.ShadowWrites;
  L["rt.shadow_bytes_end"] = Counts.ShadowBytesEnd;
  L["compress.alphabet"] = Counts.Alphabet;
  L["compress.interns"] = Counts.Interns;
  L["compress.hit_ratio"] = Counts.Interns ? Counts.Hits / Counts.Interns : 0;
  L["compress.ratio"] = Counts.CompBytes ? Counts.RawBytes / Counts.CompBytes : 0;
  L["compress.trace_bytes"] = Counts.TraceBytes;
  L["compress.write_ms"] = layerMs(Layers, "compress.write");
  L["compress.read_ms"] = layerMs(Layers, "compress.read");
  L["profile.build_ms"] = layerMs(Layers, "profile.build");
  L["planner.plan_ms"] = layerMs(Layers, "planner.plan");
  L["planner.plan_size"] = Counts.PlanSize;

  reportOverhead(Untraced, TracedProgram, UntracedPass, SpanSumPass, T.size(),
                 Inputs.size(), R);
  if (!O.TraceOut.empty() && !T.writeChromeJson(O.TraceOut))
    std::fprintf(stderr, "kbench: cannot write trace '%s'\n",
                 O.TraceOut.c_str());
  return true;
}

} // namespace kbench

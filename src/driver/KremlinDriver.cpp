//===- driver/KremlinDriver.cpp -------------------------------------------===//

#include "driver/KremlinDriver.h"

#include "ir/Verifier.h"
#include "parser/Lower.h"
#include "parser/Parser.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <array>
#include <chrono>

using namespace kremlin;

namespace {

/// Records a stage failure: structured Status (stage + input context) plus
/// the human-readable Errors line the CLI and tests read.
void failStage(DriverResult &Result, const char *Stage, Status S) {
  S.withStage(Stage).withInput(Result.SourceName);
  Result.Errors.push_back(S.toString());
  Result.Err = std::move(S);
}

/// KREMLIN_FAULT=stage:<name> gate, checked on stage entry.
bool stageFaultTripped(DriverResult &Result, const char *Stage) {
  if (!fault::enabled() || !fault::stageShouldFail(Stage))
    return false;
  failStage(Result, Stage,
            Status::error(ErrorCode::FaultInjected,
                          "stage failure injected (KREMLIN_FAULT=" +
                              fault::activeSpec() + ")"));
  return true;
}

/// Times one Figure-4 stage: a telemetry span for the trace plus a
/// wall-clock entry in DriverResult::StageMs for per-run attribution.
class StageScope {
public:
  StageScope(DriverResult &Result, const char *Name)
      : Result(Result), Name(Name), Span(Name),
        Start(std::chrono::steady_clock::now()) {}

  ~StageScope() {
    Result.StageMs.emplace_back(
        Name, std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count());
  }

  telemetry::Span &span() { return Span; }

private:
  DriverResult &Result;
  const char *Name;
  telemetry::Span Span;
  std::chrono::steady_clock::time_point Start;
};

/// Flushes one profiled execution's interpreter/runtime/shadow/compressor
/// tallies into the process-wide registry, and — when tracing — emits
/// counter samples so the numbers line up with the stage spans in the
/// Chrome trace.
void flushExecutionTelemetry(const ExecResult &Exec, const KremlinRuntime &RT,
                             const DictionaryCompressor &Dict) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::Counter &DynInsns = Reg.counter("rt.dyn_instructions");
  static telemetry::Counter &Events = Reg.counter("rt.prof_events");
  static telemetry::Counter &DynRegions = Reg.counter("rt.dyn_region_entries");
  static telemetry::Counter &Loads = Reg.counter("rt.loads");
  static telemetry::Counter &Stores = Reg.counter("rt.stores");
  static telemetry::Counter &Retags = Reg.counter("rt.level_retags");
  static telemetry::Counter &SegAlloc =
      Reg.counter("shadow.segments_allocated");
  static telemetry::Counter &SegFreed =
      Reg.counter("shadow.segments_released");
  static telemetry::Counter &ShadowReads = Reg.counter("shadow.reads");
  static telemetry::Counter &ShadowWrites = Reg.counter("shadow.writes");
  static telemetry::Counter &DictInterns = Reg.counter("dict.interns");
  static telemetry::Counter &DictHits = Reg.counter("dict.hits");
  static telemetry::Counter &ConsumerWait = Reg.counter("rt.consumer_wait_us");
  static telemetry::Counter &ProducerSleeps =
      Reg.counter("rt.producer_sleeps");

  DynInsns.add(Exec.DynInstructions);
  ConsumerWait.add(Exec.ConsumerWaitUs);
  ProducerSleeps.add(Exec.ProducerSleeps);
  const RuntimeStats &Stats = RT.stats();
  Events.add(Stats.Events);
  static const std::array<telemetry::Counter *, NumEvKinds> EventsByKind =
      [&] {
        std::array<telemetry::Counter *, NumEvKinds> C;
        for (size_t K = 0; K < NumEvKinds; ++K)
          C[K] = &Reg.counter(std::string("rt.prof_events.") + EvKindNames[K]);
        return C;
      }();
  for (size_t K = 0; K < NumEvKinds; ++K)
    EventsByKind[K]->add(Stats.EventsByKind[K]);
  DynRegions.add(Stats.DynRegionEntries);
  Loads.add(Stats.Loads);
  Stores.add(Stats.Stores);
  Retags.add(Stats.LevelRetags);

  const ShadowMemory &Mem = RT.shadowMemory();
  // releaseRange decrements the live-segment count; the lifetime total is
  // live + released.
  SegAlloc.add(Mem.allocatedSegments() + Mem.releasedSegments());
  SegFreed.add(Mem.releasedSegments());
  ShadowReads.add(Mem.timestampReads());
  ShadowWrites.add(Mem.timestampWrites());
  Reg.gauge("shadow.bytes").set(static_cast<double>(Mem.allocatedBytes()));
  Reg.gauge("shadow.peak_bytes").set(static_cast<double>(Mem.peakBytes()));
  Reg.gauge("rt.max_region_depth")
      .set(static_cast<double>(Stats.PeakRegionDepth));

  DictInterns.add(Dict.numDynamicRegions());
  DictHits.add(Dict.hits());
  Reg.gauge("dict.entries").set(static_cast<double>(Dict.alphabet().size()));
  Reg.gauge("dict.compression_ratio").set(Dict.compressionRatio());

  // Guardrail visibility: the configured budget and depth cap (0 =
  // unlimited) next to the usage gauges above, and a counter of executions
  // a guardrail stopped.
  Reg.gauge("shadow.byte_budget")
      .set(static_cast<double>(Mem.byteBudget()));
  Reg.gauge("rt.region_depth_cap")
      .set(static_cast<double>(RT.config().MaxRegionDepth));
  if (RT.failed())
    Reg.counter("rt.guardrail_trips").add();

  if (telemetry::traceEnabled()) {
    telemetry::counterSample("shadow.bytes",
                             static_cast<double>(Mem.allocatedBytes()));
    telemetry::counterSample(
        "shadow.segments", static_cast<double>(Mem.allocatedSegments()));
    telemetry::counterSample("dict.entries",
                             static_cast<double>(Dict.alphabet().size()));
    telemetry::counterSample("dict.compression_ratio",
                             Dict.compressionRatio());
  }
}

} // namespace

bool KremlinDriver::runFrontend(DriverResult &Result,
                                std::string_view Source) {
  ParseResult PR;
  {
    StageScope Stage(Result, "parse");
    Stage.span().arg("source", Result.SourceName);
    if (stageFaultTripped(Result, "parse")) {
      Result.M = std::make_unique<Module>();
      return false;
    }
    PR = parseMiniC(Source, Result.SourceName);
  }
  if (!PR.succeeded()) {
    // Parse diagnostics already carry file:line:col; keep every line and
    // summarize the first into the structured status.
    Result.Err = Status::error(ErrorCode::ParseError, PR.Errors.front())
                     .withStage("parse")
                     .withInput(Result.SourceName);
    Result.Errors = std::move(PR.Errors);
    Result.M = std::make_unique<Module>();
    return false;
  }

  {
    StageScope Stage(Result, "lower");
    if (stageFaultTripped(Result, "lower")) {
      Result.M = std::make_unique<Module>();
      return false;
    }
    LowerResult LR = lowerProgram(PR.Program);
    Result.M = std::move(LR.M);
    if (!LR.succeeded()) {
      Result.Err = Status::error(ErrorCode::ParseError, LR.Errors.front())
                       .withStage("lower")
                       .withInput(Result.SourceName);
      Result.Errors = std::move(LR.Errors);
      return false;
    }
  }
  return true;
}

DriverResult KremlinDriver::runOnSource(std::string_view Source,
                                        std::string Name) {
  DriverResult Result;
  Result.SourceName = std::move(Name);
  if (runFrontend(Result, Source))
    runPipeline(Result);
  return Result;
}

DriverResult KremlinDriver::lintSource(std::string_view Source,
                                       std::string Name) {
  DriverResult Result;
  Result.SourceName = std::move(Name);
  if (runFrontend(Result, Source))
    runStaticStages(Result, /*ForceAnalysis=*/true);
  return Result;
}

DriverResult KremlinDriver::runOnModule(std::unique_ptr<Module> M,
                                        std::string Name) {
  DriverResult Result;
  Result.SourceName = std::move(Name);
  if (Result.SourceName.empty())
    Result.SourceName = M ? M->SourceName : "";
  Result.M = std::move(M);
  runPipeline(Result);
  return Result;
}

bool KremlinDriver::runStaticStages(DriverResult &Result,
                                    bool ForceAnalysis) {
  {
    StageScope Stage(Result, "verify");
    if (stageFaultTripped(Result, "verify"))
      return false;
    std::vector<std::string> Problems = verifyModule(*Result.M);
    if (!Problems.empty()) {
      Result.Err =
          Status::error(ErrorCode::Internal, "verifier: " + Problems.front())
              .withStage("verify")
              .withInput(Result.SourceName);
      for (std::string &P : Problems)
        Result.Errors.push_back("verifier: " + std::move(P));
      return false;
    }
  }

  // Static instrumentation (kremlin-cc).
  {
    StageScope Stage(Result, "instrument");
    if (stageFaultTripped(Result, "instrument"))
      return false;
    InstrumentOptions IO;
    IO.VerifyAfterEachPass = Opts.VerifyIR;
    Result.Instrument = instrumentModule(*Result.M, IO);
    for (const std::string &W : Result.Instrument.Warnings)
      Result.Warnings.push_back("instrument: " + W);
    if (!Result.Instrument.Err.ok()) {
      failStage(Result, "instrument", Result.Instrument.Err);
      return false;
    }
  }

  // Static loop-dependence analysis (lint / plan annotation).
  if (Opts.StaticAnalysis || ForceAnalysis) {
    StageScope Stage(Result, "analyze");
    if (stageFaultTripped(Result, "analyze"))
      return false;
    Result.Static = analyzeModuleDependence(*Result.M);
    Stage.span().arg("loops", std::to_string(Result.Static.Loops.size()));
  }
  return true;
}

void KremlinDriver::runPipeline(DriverResult &Result) {
  if (!runStaticStages(Result, /*ForceAnalysis=*/false))
    return;

  // Profiled execution (the instrumented binary + KremLib).
  Result.Dict = std::make_unique<DictionaryCompressor>();
  KremlinRuntime RT(Opts.Runtime, *Result.Dict);
  {
    StageScope Stage(Result, "execute");
    if (stageFaultTripped(Result, "execute"))
      return;
    Interpreter Interp(*Result.M, Opts.Interp);
    Result.Exec = Interp.run(&RT);
    Stage.span().arg("dyn_instructions",
                     std::to_string(Result.Exec.DynInstructions));
  }
  flushExecutionTelemetry(Result.Exec, RT, *Result.Dict);
  if (!Result.Exec.Ok) {
    failStage(Result, "execute",
              Result.Exec.Err.ok() ? Status::error(ErrorCode::ExecutionError,
                                                   Result.Exec.Error)
                                   : Result.Exec.Err);
    return;
  }

  // Profile aggregation over the compressed trace (§4.4: analyses walk
  // the alphabet, never the raw dynamic-region stream).
  {
    StageScope Stage(Result, "compress");
    if (stageFaultTripped(Result, "compress"))
      return;
    Stage.span().arg("alphabet",
                     std::to_string(Result.Dict->alphabet().size()));
    Result.Profile =
        std::make_unique<ParallelismProfile>(*Result.M, *Result.Dict);
  }

  {
    StageScope Stage(Result, "plan");
    if (stageFaultTripped(Result, "plan"))
      return;
    Stage.span().arg("personality", Opts.PersonalityName);
    std::unique_ptr<Personality> P = makePersonality(Opts.PersonalityName);
    if (!P) {
      failStage(Result, "plan",
                Status::error(ErrorCode::InvalidArgument,
                              "unknown personality '" + Opts.PersonalityName +
                                  "'"));
      return;
    }
    PlannerOptions PO = Opts.Planner;
    PO.StaticVerdicts = Result.Static.verdictMap();
    Result.ThePlan = P->plan(*Result.Profile, PO);
  }

  // Static-vs-dynamic cross-check: a disagreement means the measured
  // parallelism is an artifact of this input (input sensitivity, §6), not
  // a property of the loop — surface it instead of silently trusting
  // either side.
  for (const StaticLoopResult &L : Result.Static.Loops) {
    if (L.Region == NoRegion || L.Verdict == LoopVerdict::Unknown)
      continue;
    const RegionProfileEntry &E = Result.Profile->entry(L.Region);
    if (!E.Executed || E.avgIterations() < 4.0)
      continue;
    std::string Msg;
    if (L.Verdict == LoopVerdict::ProvablySerial && E.SelfParallelism >= 4.0)
      Msg = formatString(
          "%s: measured self-parallelism %.1f but a loop-carried dependence "
          "is proven (%s); the parallelism is an artifact of this input",
          Result.M->Regions[L.Region].sourceSpan().c_str(), E.SelfParallelism,
          L.Reason.c_str());
    else if (L.Verdict == LoopVerdict::ProvablyDoall &&
             E.SelfParallelism < 1.5)
      Msg = formatString(
          "%s: provably DOALL (%s) but measured self-parallelism is only "
          "%.1f; this input may serialize the loop artificially",
          Result.M->Regions[L.Region].sourceSpan().c_str(), L.Reason.c_str(),
          E.SelfParallelism);
    else if (L.Verdict == LoopVerdict::ProvablyReduction &&
             !L.MinMaxReduction && E.SelfParallelism < 1.5)
      // HCPA breaks +/* reduction recurrences at runtime, so a proven sum/
      // product reduction should measure parallel; min/max reductions are
      // exempt -- the runtime rule cannot break them, and a serial
      // measurement is expected, not a disagreement.
      Msg = formatString(
          "%s: provably a reduction (%s) but measured self-parallelism is "
          "only %.1f; this input may serialize the loop artificially",
          Result.M->Regions[L.Region].sourceSpan().c_str(), L.Reason.c_str(),
          E.SelfParallelism);
    if (Msg.empty())
      continue;
    telemetry::Registry::global().counter("static.disagreements").add();
    telemetry::logWarn("static", Msg);
    Result.Warnings.push_back("input-sensitivity: " + std::move(Msg));
  }

  double TotalMs = 0.0;
  for (const auto &[Name, Ms] : Result.StageMs)
    TotalMs += Ms;
  telemetry::Registry::global()
      .histogram("driver.pipeline_us")
      .record(static_cast<uint64_t>(TotalMs * 1000.0));
}

Plan KremlinDriver::replan(const DriverResult &Result,
                           const PlannerOptions &NewOpts,
                           const std::string &PersonalityName) const {
  std::unique_ptr<Personality> P = makePersonality(
      PersonalityName.empty() ? Opts.PersonalityName : PersonalityName);
  if (!P || !Result.Profile)
    return Plan();
  return P->plan(*Result.Profile, NewOpts);
}

//===- bench/bench_micro_telemetry.cpp - Telemetry overhead benches -------===//
//
// Microbenchmarks for the self-telemetry layer, centered on the contract
// the pipeline instrumentation relies on: with tracing disabled, entering
// and leaving a Span costs one relaxed-atomic increment and nothing else.
// Counter/histogram updates and filtered-out log calls are measured too,
// since they sit on the shadow-memory flush and driver diagnostics paths.
//
//===----------------------------------------------------------------------===//

#include "support/AccessLog.h"
#include "support/Telemetry.h"

#include <benchmark/benchmark.h>

using namespace kremlin;

namespace {

/// Counts and discards chunks so the enabled cases measure the ring + sink
/// hand-off itself, not unbounded accumulation or file I/O.
struct DiscardingSink final : telemetry::TraceSink {
  uint64_t Events = 0;
  void writeBatch(std::vector<telemetry::TraceEvent> Batch) override {
    Events += Batch.size();
  }
};

/// The disabled fast path: one relaxed fetch_add on the event counter,
/// then an early return. This is what every pipeline stage pays when the
/// user did not ask for a trace.
void BM_SpanDisabled(benchmark::State &State) {
  for (auto _ : State) {
    telemetry::Span S("bench.span");
    benchmark::DoNotOptimize(&S);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpanDisabled);

/// The enabled path: record start/stop into the lock-sharded trace ring,
/// whose full shards hand their chunks to the installed sink. This pins
/// the cost of producing a bounded-memory trace.
void BM_SpanEnabled(benchmark::State &State) {
  (void)telemetry::setTraceSink(std::make_unique<DiscardingSink>());
  for (auto _ : State) {
    telemetry::Span S("bench.span");
    benchmark::DoNotOptimize(&S);
  }
  (void)telemetry::closeTraceSink();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterAdd(benchmark::State &State) {
  telemetry::Counter &C =
      telemetry::Registry::global().counter("bench.counter");
  for (auto _ : State)
    C.add();
  benchmark::DoNotOptimize(C.value());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State &State) {
  telemetry::Histogram &H =
      telemetry::Registry::global().histogram("bench.histogram");
  uint64_t V = 1;
  for (auto _ : State) {
    H.record(V);
    V = V * 2862933555777941757ull + 3037000493ull; // Cheap LCG spread.
  }
  benchmark::DoNotOptimize(H.count());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HistogramRecord);

/// The per-request span the serve path opens around every HTTP request:
/// a scoped trace context plus a Span carrying the args the access log
/// and Chrome trace need. This is the request-observability hot path.
void BM_RequestSpanWithTraceContext(benchmark::State &State) {
  (void)telemetry::setTraceSink(std::make_unique<DiscardingSink>());
  telemetry::TraceContext Ctx = telemetry::mintTraceContext();
  for (auto _ : State) {
    telemetry::ScopedTraceContext Scope(Ctx);
    telemetry::Span S("bench.request", "serve");
    S.arg("method", "POST");
    S.arg("path", "/ingest");
    benchmark::DoNotOptimize(&S);
  }
  (void)telemetry::closeTraceSink();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RequestSpanWithTraceContext);

/// The disabled request path: tracing off, no context installed. The
/// whole per-request observability envelope must collapse to the same
/// near-zero cost as a bare disabled Span.
void BM_RequestSpanDisabledPath(benchmark::State &State) {
  for (auto _ : State) {
    telemetry::Span S("bench.request", "serve");
    S.arg("method", "POST");
    benchmark::DoNotOptimize(&S);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RequestSpanDisabledPath);

/// Strict traceparent validation, as run once per inbound request that
/// carries the header.
void BM_TraceparentParse(benchmark::State &State) {
  telemetry::TraceContext Ctx = telemetry::mintTraceContext();
  std::string Header = telemetry::formatTraceparent(Ctx);
  for (auto _ : State) {
    telemetry::TraceContext Parsed;
    bool Ok = telemetry::parseTraceparent(Header, Parsed);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(&Parsed);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TraceparentParse);

/// One structured access-log line: JSON formatting plus the buffered
/// write (flushed to /dev/null), the post-response cost every logged
/// request pays.
void BM_AccessLogAppend(benchmark::State &State) {
  Expected<std::unique_ptr<AccessLog>> Log = AccessLog::open("/dev/null");
  if (!Log.ok()) {
    State.SkipWithError("cannot open /dev/null");
    return;
  }
  AccessLogEntry Entry;
  Entry.TraceId = "0123456789abcdef0123456789abcdef";
  Entry.Method = "POST";
  Entry.Path = "/ingest";
  Entry.Status = 200;
  Entry.BytesIn = 4096;
  Entry.BytesOut = 128;
  Entry.QueueWaitUs = 37;
  Entry.HandlerUs = 412;
  Entry.Dedup = "merged";
  for (auto _ : State)
    Log.value()->append(Entry);
  (void)Log.value()->close();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AccessLogAppend);

/// A debug log call below the active level: must short-circuit before any
/// formatting happens.
void BM_LogFilteredDebug(benchmark::State &State) {
  telemetry::setLogLevel(telemetry::LogLevel::Error);
  uint64_t N = 0;
  for (auto _ : State) {
    telemetry::logf(telemetry::LogLevel::Debug, "bench",
                    "iteration %llu of %llu",
                    static_cast<unsigned long long>(N),
                    static_cast<unsigned long long>(N + 1));
    ++N;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_LogFilteredDebug);

} // namespace

BENCHMARK_MAIN();

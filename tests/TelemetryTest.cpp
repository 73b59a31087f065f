//===- tests/TelemetryTest.cpp - Self-telemetry layer tests ---------------===//
//
// Covers the telemetry contracts the pipeline instrumentation leans on:
// lossless concurrent counter/histogram updates (via ThreadPool workers),
// Chrome trace_event and metrics JSON that round-trip through the
// support/Json parser, span/instant/counter-sample recording semantics,
// and the leveled logger's filtering.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "TestUtil.h"
#include "driver/BenchHarness.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

using namespace kremlin;
using kremlin::test::TraceCapture;
namespace tel = kremlin::telemetry;

namespace {

/// The registry, trace ring, and sink slot are process-wide; start every
/// test from a clean slate so order does not matter.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    (void)tel::closeTraceSink();
    tel::Registry::global().resetValues();
  }
  void TearDown() override { (void)tel::closeTraceSink(); }

  uint64_t counterValue(const char *Name) {
    return tel::Registry::global().counter(Name).value();
  }
};

TEST_F(TelemetryTest, CounterBasics) {
  tel::Counter &C = tel::Registry::global().counter("test.counter");
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  // Same name resolves to the same metric.
  EXPECT_EQ(&tel::Registry::global().counter("test.counter"), &C);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST_F(TelemetryTest, GaugeStoresDoubles) {
  tel::Gauge &G = tel::Registry::global().gauge("test.gauge");
  G.set(3.25);
  EXPECT_DOUBLE_EQ(G.value(), 3.25);
  G.set(-0.5);
  EXPECT_DOUBLE_EQ(G.value(), -0.5);
}

TEST_F(TelemetryTest, HistogramBucketsAndStats) {
  tel::Histogram &H = tel::Registry::global().histogram("test.hist");
  H.record(0);
  H.record(1);
  H.record(2);
  H.record(3);
  H.record(1000);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1006u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucket(0), 1u); // 0
  EXPECT_EQ(H.bucket(1), 1u); // 1
  EXPECT_EQ(H.bucket(2), 2u); // 2, 3
  EXPECT_EQ(H.bucket(10), 1u); // 1000 in [512, 1024)
  // The extremes are exact; the median (rank 2 of 0..4) is the first of
  // the two samples in the [2,4) bucket, interpolated as 2.
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(0.5), 2u);
  EXPECT_EQ(H.quantile(1.0), 1000u);
  // p75 (rank 3) is the second [2,4) sample, within the bucket.
  EXPECT_EQ(H.quantile(0.75), 3u);
}

TEST_F(TelemetryTest, HistogramQuantilesStayWithinTheSamples) {
  // One sample reads back exactly at every quantile, not as its log2
  // bucket's upper bound (524287 for this one).
  tel::Histogram &One = tel::Registry::global().histogram("test.hist_one");
  One.record(306253);
  for (double P : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(One.quantile(P), 306253u) << "p" << P;

  // Within one bucket, interpolation stays inside [min, max].
  tel::Histogram &H = tel::Registry::global().histogram("test.hist_span");
  for (uint64_t V = 600; V <= 700; ++V)
    H.record(V);
  EXPECT_EQ(H.quantile(0.0), 600u);
  EXPECT_EQ(H.quantile(1.0), 700u);
  uint64_t P50 = H.quantile(0.5);
  EXPECT_GE(P50, 645u);
  EXPECT_LE(P50, 655u);
  EXPECT_LE(H.quantile(0.99), 700u);
}

TEST_F(TelemetryTest, ConcurrentCounterUpdatesAreLossless) {
  tel::Counter &C = tel::Registry::global().counter("test.concurrent");
  constexpr unsigned Workers = 8;
  constexpr uint64_t PerWorker = 20000;
  ThreadPool Pool(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Pool.post([&C]() {
      for (uint64_t I = 0; I < PerWorker; ++I)
        C.add();
    });
  Pool.wait();
  EXPECT_EQ(C.value(), Workers * PerWorker);
}

TEST_F(TelemetryTest, ConcurrentHistogramUpdatesAreLossless) {
  tel::Histogram &H = tel::Registry::global().histogram("test.conc_hist");
  constexpr unsigned Workers = 8;
  constexpr uint64_t PerWorker = 20000;
  ThreadPool Pool(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Pool.post([&H, W]() {
      for (uint64_t I = 0; I < PerWorker; ++I)
        H.record(W * PerWorker + I);
    });
  Pool.wait();
  EXPECT_EQ(H.count(), Workers * PerWorker);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), Workers * PerWorker - 1);
  uint64_t BucketTotal = 0;
  for (unsigned I = 0; I < tel::Histogram::NumBuckets; ++I)
    BucketTotal += H.bucket(I);
  EXPECT_EQ(BucketTotal, Workers * PerWorker);
}

TEST_F(TelemetryTest, SnapshotExpandsHistograms) {
  tel::Registry &Reg = tel::Registry::global();
  Reg.counter("snap.counter").add(7);
  Reg.gauge("snap.gauge").set(1.5);
  Reg.histogram("snap.hist").record(100);
  auto Snap = Reg.snapshot();
  auto Find = [&Snap](const std::string &Name) -> const double * {
    for (const auto &[N, V] : Snap)
      if (N == Name)
        return &V;
    return nullptr;
  };
  ASSERT_NE(Find("snap.counter"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.counter"), 7.0);
  ASSERT_NE(Find("snap.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.gauge"), 1.5);
  ASSERT_NE(Find("snap.hist.count"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.hist.count"), 1.0);
  ASSERT_NE(Find("snap.hist.max"), nullptr);
  EXPECT_DOUBLE_EQ(*Find("snap.hist.max"), 100.0);
  ASSERT_NE(Find("snap.hist.p99"), nullptr);
}

TEST_F(TelemetryTest, MetricsJsonRoundTripsThroughBenchParser) {
  tel::Registry &Reg = tel::Registry::global();
  Reg.counter("rt.test_metric").add(123);
  Reg.gauge("dict.test_ratio").set(45.5);
  std::string Json = Reg.toJson().serialize();

  // The document parses as JSON at all...
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  EXPECT_TRUE(Doc.isObject());
  // ...and through the bench metrics reader, sharing the results schema.
  MetricMap Metrics;
  ASSERT_TRUE(parseMetricsJson(Json, Metrics, &Error)) << Error;
  EXPECT_DOUBLE_EQ(Metrics["rt.test_metric"], 123.0);
  EXPECT_DOUBLE_EQ(Metrics["dict.test_ratio"], 45.5);
}

TEST_F(TelemetryTest, RenderTableListsMetrics) {
  tel::Registry &Reg = tel::Registry::global();
  Reg.counter("table.hits").add(9);
  std::string Table = Reg.renderTable();
  EXPECT_NE(Table.find("table.hits"), std::string::npos);
  EXPECT_NE(Table.find("9"), std::string::npos);
}

TEST_F(TelemetryTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(tel::traceEnabled());
  {
    tel::Span S("quiet");
    S.arg("key", "value");
  }
  tel::instantEvent("quiet.instant", "test");
  tel::counterSample("quiet.counter", 1.0);
  EXPECT_EQ(counterValue("telemetry.trace.recorded"), 0u);
  TraceCapture Capture;
  EXPECT_TRUE(Capture.take().empty());
}

TEST_F(TelemetryTest, SpansInstantsAndSamplesRecordWhenEnabled) {
  TraceCapture Capture;
  EXPECT_TRUE(tel::traceEnabled());
  {
    tel::Span S("outer");
    S.arg("detail", "abc");
    tel::instantEvent("ping", "test", {{"n", "1"}});
    tel::counterSample("gauge", 2.5);
  }
  std::vector<tel::TraceEvent> Events = Capture.take();
  ASSERT_EQ(Events.size(), 3u);

  const tel::TraceEvent *SpanEv = nullptr, *InstEv = nullptr,
                        *SampleEv = nullptr;
  for (const tel::TraceEvent &E : Events) {
    if (E.K == tel::TraceEvent::Kind::Span)
      SpanEv = &E;
    else if (E.K == tel::TraceEvent::Kind::Instant)
      InstEv = &E;
    else
      SampleEv = &E;
  }
  ASSERT_NE(SpanEv, nullptr);
  EXPECT_EQ(SpanEv->Name, "outer");
  EXPECT_EQ(SpanEv->Category, "pipeline");
  ASSERT_EQ(SpanEv->Args.size(), 1u);
  EXPECT_EQ(SpanEv->Args[0].first, "detail");
  ASSERT_NE(InstEv, nullptr);
  EXPECT_EQ(InstEv->Name, "ping");
  ASSERT_NE(SampleEv, nullptr);
  EXPECT_DOUBLE_EQ(SampleEv->Value, 2.5);
  // The capture was drained.
  EXPECT_TRUE(Capture.take().empty());
}

TEST_F(TelemetryTest, ChromeTraceJsonParsesAndHasExpectedPhases) {
  std::string Path = ::testing::TempDir() + "telemetry_phases.json";
  Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
      tel::FileTraceSink::open(Path);
  ASSERT_TRUE(Sink.ok()) << Sink.status().toString();
  ASSERT_TRUE(tel::setTraceSink(std::move(*Sink)).ok());
  {
    tel::Span S("stage", "pipeline");
    tel::instantEvent("marker", "planner");
  }
  tel::counterSample("metric", 7.0);
  ASSERT_TRUE(tel::closeTraceSink().ok());
  std::string Json;
  ASSERT_TRUE(readFileToString(Path, Json));

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->size(), 3u);

  bool SawX = false, SawI = false, SawC = false;
  for (size_t I = 0; I < Events->size(); ++I) {
    const JsonValue &E = Events->at(I);
    const JsonValue *Ph = E.get("ph");
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(E.get("ts"), nullptr);
    ASSERT_NE(E.get("pid"), nullptr);
    ASSERT_NE(E.get("tid"), nullptr);
    if (Ph->asString() == "X") {
      SawX = true;
      EXPECT_NE(E.get("dur"), nullptr);
      EXPECT_EQ(E.get("name")->asString(), "stage");
    } else if (Ph->asString() == "i") {
      SawI = true;
    } else if (Ph->asString() == "C") {
      SawC = true;
      const JsonValue *Args = E.get("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_DOUBLE_EQ(Args->getNumber("value"), 7.0);
    }
  }
  EXPECT_TRUE(SawX);
  EXPECT_TRUE(SawI);
  EXPECT_TRUE(SawC);
}

TEST_F(TelemetryTest, SpanEndIsIdempotent) {
  TraceCapture Capture;
  {
    tel::Span S("once");
    S.end();
    S.end(); // Second end (and the destructor) must not re-record.
  }
  EXPECT_EQ(Capture.take().size(), 1u);
}

TEST_F(TelemetryTest, DisabledSpanBumpsEventCounter) {
  tel::Counter &Events = tel::Registry::global().counter("telemetry.events");
  uint64_t Before = Events.value();
  { tel::Span S("cheap"); }
  tel::instantEvent("cheap.instant", "test");
  EXPECT_EQ(Events.value(), Before + 2);
}

TEST_F(TelemetryTest, InMemorySinkReceivesChunksAndResidue) {
  auto Sink = std::make_unique<tel::InMemoryTraceSink>();
  tel::InMemoryTraceSink *Raw = Sink.get();
  ASSERT_TRUE(tel::setTraceSink(std::move(Sink)).ok());
  EXPECT_TRUE(tel::traceEnabled());
  EXPECT_EQ(tel::traceSink(), Raw);

  // One thread writes to one shard: one more event than it holds.
  constexpr size_t N = tel::TraceShardEvents + 1;
  for (size_t I = 0; I < N; ++I)
    tel::instantEvent("sink." + std::to_string(I), "test");
  // The full shard handed its chunk to the sink mid-run; nothing was
  // dropped.
  EXPECT_EQ(counterValue("telemetry.trace.flushes"), 1u);
  EXPECT_EQ(Raw->take().size(), tel::TraceShardEvents);
  EXPECT_EQ(counterValue("telemetry.trace.dropped"), 0u);

  tel::flushTraceRings();
  std::vector<tel::TraceEvent> Events = Raw->take();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events.front().Name, "sink." + std::to_string(N - 1));
  EXPECT_EQ(counterValue("telemetry.trace.flushed_events"), N);

  ASSERT_TRUE(tel::closeTraceSink().ok());
  EXPECT_FALSE(tel::traceEnabled());
  EXPECT_EQ(tel::traceSink(), nullptr);
}

TEST_F(TelemetryTest, CloseStreamsResidualRingContents) {
  auto Sink = std::make_unique<tel::InMemoryTraceSink>();
  tel::InMemoryTraceSink *Raw = Sink.get();
  ASSERT_TRUE(tel::setTraceSink(std::move(Sink)).ok());
  tel::instantEvent("residue", "test");
  // The event is still in the (far from full) ring, so the sink has not
  // seen it yet; an explicit flush streams it.
  EXPECT_TRUE(Raw->take().empty());
  tel::flushTraceRings();
  std::vector<tel::TraceEvent> Events = Raw->take();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events.front().Name, "residue");
  EXPECT_TRUE(tel::closeTraceSink().ok());
}

TEST_F(TelemetryTest, CloseWithoutSinkIsANoop) {
  EXPECT_TRUE(tel::closeTraceSink().ok());
}

TEST_F(TelemetryTest, FileSinkStreamsValidChromeJson) {
  std::string Path = ::testing::TempDir() + "telemetry_file_sink.json";
  Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
      tel::FileTraceSink::open(Path);
  ASSERT_TRUE(Sink.ok()) << Sink.status().toString();
  EXPECT_EQ((*Sink)->path(), Path);
  ASSERT_TRUE(tel::setTraceSink(std::move(*Sink)).ok());

  // A full shard's chunk serializes past the 64 KiB write buffer, so the
  // file is written incrementally before close() adds the tail.
  constexpr size_t N = tel::TraceShardEvents + 25;
  for (size_t I = 0; I < N; ++I) {
    tel::Span S("file.span." + std::to_string(I), "test");
    S.arg("i", std::to_string(I));
  }
  EXPECT_GE(counterValue("telemetry.trace.file_flushes"), 1u);
  ASSERT_TRUE(tel::closeTraceSink().ok());
  EXPECT_GE(counterValue("telemetry.trace.file_flushes"), 2u);
  EXPECT_GT(counterValue("telemetry.trace.file_bytes"), 0u);

  std::string Json;
  ASSERT_TRUE(readFileToString(Path, Json));
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_EQ(Events->size(), N);
  EXPECT_EQ(Doc.get("displayTimeUnit")->asString(), "ms");
}

TEST_F(TelemetryTest, FileSinkFlushesOnDestruction) {
  std::string Path = ::testing::TempDir() + "telemetry_dtor_sink.json";
  {
    Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
        tel::FileTraceSink::open(Path);
    ASSERT_TRUE(Sink.ok()) << Sink.status().toString();
    tel::TraceEvent E;
    E.K = tel::TraceEvent::Kind::Instant;
    E.Name = "dtor";
    E.Category = "test";
    (*Sink)->writeBatch({E});
    // No close(): the destructor must finalize and flush the document.
  }
  std::string Json;
  ASSERT_TRUE(readFileToString(Path, Json));
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  ASSERT_EQ(Doc.get("traceEvents")->size(), 1u);
  EXPECT_EQ(Doc.get("traceEvents")->at(0).get("name")->asString(), "dtor");
}

TEST_F(TelemetryTest, EmptyFileSinkStillWritesAValidDocument) {
  std::string Path = ::testing::TempDir() + "telemetry_empty_sink.json";
  {
    Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
        tel::FileTraceSink::open(Path);
    ASSERT_TRUE(Sink.ok()) << Sink.status().toString();
  }
  std::string Json;
  ASSERT_TRUE(readFileToString(Path, Json));
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.get("traceEvents")->size(), 0u);
}

TEST_F(TelemetryTest, FileSinkOpenFailsWithStructuredError) {
  Expected<std::unique_ptr<tel::FileTraceSink>> Sink =
      tel::FileTraceSink::open("/nonexistent-dir/trace.json");
  ASSERT_FALSE(Sink.ok());
  EXPECT_EQ(Sink.status().code(), ErrorCode::IoError);
}

TEST_F(TelemetryTest, LoggerFiltersByLevel) {
  tel::LogLevel Saved = tel::logLevel();
  tel::Registry &Reg = tel::Registry::global();
  tel::Counter &Suppressed = Reg.counter("log.suppressed");
  tel::Counter &Warnings = Reg.counter("log.warnings");

  tel::setLogLevel(tel::LogLevel::Error);
  EXPECT_TRUE(tel::logEnabled(tel::LogLevel::Error));
  EXPECT_FALSE(tel::logEnabled(tel::LogLevel::Warn));
  uint64_t SuppressedBefore = Suppressed.value();
  tel::logWarn("test", "filtered out");
  EXPECT_EQ(Suppressed.value(), SuppressedBefore + 1);

  tel::setLogLevel(tel::LogLevel::Debug);
  uint64_t WarnBefore = Warnings.value();
  tel::logWarn("test", "emitted");
  tel::logf(tel::LogLevel::Warn, "test", "emitted too: %d", 7);
  EXPECT_EQ(Warnings.value(), WarnBefore + 2);

  tel::setLogLevel(Saved);
}

TEST_F(TelemetryTest, LogLevelNamesRoundTrip) {
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Error), "error");
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Warn), "warn");
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Info), "info");
  EXPECT_STREQ(tel::logLevelName(tel::LogLevel::Debug), "debug");
}

// --- Empty-histogram quantile reporting -------------------------------------

TEST_F(TelemetryTest, EmptyHistogramSnapshotReportsNaNNotSentinels) {
  tel::Registry::global().histogram("test.empty_hist");
  auto Snapshot = tel::Registry::global().snapshot();
  bool SawCount = false;
  for (const auto &[Name, Value] : Snapshot) {
    if (Name == "test.empty_hist.count") {
      SawCount = true;
      EXPECT_EQ(Value, 0.0);
    }
    // Before the fix min rendered as 0 and p50/p99 as the bucket-0 bound:
    // plausible-looking garbage. Empty must be visibly empty.
    if (Name == "test.empty_hist.min" || Name == "test.empty_hist.max" ||
        Name == "test.empty_hist.p50" || Name == "test.empty_hist.p99") {
      EXPECT_TRUE(std::isnan(Value)) << Name << " = " << Value;
    }
  }
  EXPECT_TRUE(SawCount);
}

TEST_F(TelemetryTest, EmptyHistogramRendersAsNaInTableAndNullInJson) {
  tel::Registry::global().histogram("test.empty_hist");
  std::string Table = tel::Registry::global().renderTable();
  EXPECT_NE(Table.find("test.empty_hist.p99"), std::string::npos);
  EXPECT_NE(Table.find("n/a"), std::string::npos);

  std::string Json = tel::Registry::global().toJson().serialize(2);
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Json, Doc));
  const JsonValue *Metrics = Doc.get("metrics");
  ASSERT_NE(Metrics, nullptr);
  const JsonValue *P99 = Metrics->get("test.empty_hist.p99");
  ASSERT_NE(P99, nullptr);
  EXPECT_TRUE(P99->isNull());
}

TEST_F(TelemetryTest, NonEmptyHistogramQuantilesStayNumeric) {
  tel::Histogram &H = tel::Registry::global().histogram("test.filled");
  H.record(5);
  for (const auto &[Name, Value] : tel::Registry::global().snapshot()) {
    if (Name.rfind("test.filled.", 0) == 0) {
      EXPECT_FALSE(std::isnan(Value)) << Name;
    }
  }
}

// --- Prometheus text exposition ---------------------------------------------

TEST_F(TelemetryTest, PrometheusExpositionRendersAllKinds) {
  tel::Registry::global().counter("test.prom.counter").add(7);
  tel::Registry::global().gauge("test.prom.gauge").set(2.5);
  tel::Histogram &H = tel::Registry::global().histogram("test.prom.hist");
  H.record(0);
  H.record(3);
  H.record(1000);

  std::string Text = tel::Registry::global().renderPrometheus();
  EXPECT_NE(Text.find("# TYPE kremlin_test_prom_counter counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_counter 7\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE kremlin_test_prom_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_gauge 2.5\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE kremlin_test_prom_hist histogram\n"),
            std::string::npos);
  // Cumulative log2 buckets with inclusive upper bounds, closed by +Inf.
  EXPECT_NE(Text.find("kremlin_test_prom_hist_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_hist_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_hist_bucket{le=\"1023\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_hist_sum 1003\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_hist_count 3\n"),
            std::string::npos);
}

TEST_F(TelemetryTest, PrometheusBucketsAreMonotone) {
  tel::Histogram &H = tel::Registry::global().histogram("test.prom.mono");
  for (uint64_t V : {1ull, 2ull, 4ull, 8ull, 100ull, 5000ull})
    H.record(V);
  std::string Text = tel::Registry::global().renderPrometheus();
  uint64_t Prev = 0;
  size_t Pos = 0;
  unsigned BucketLines = 0;
  const std::string Needle = "kremlin_test_prom_mono_bucket{le=";
  while ((Pos = Text.find(Needle, Pos)) != std::string::npos) {
    size_t Space = Text.find(' ', Pos + Needle.size());
    uint64_t Cum = std::strtoull(Text.c_str() + Space + 1, nullptr, 10);
    EXPECT_GE(Cum, Prev);
    Prev = Cum;
    ++BucketLines;
    Pos = Space;
  }
  EXPECT_GT(BucketLines, 2u);
  EXPECT_EQ(Prev, 6u); // The +Inf bucket equals the count.
}

TEST_F(TelemetryTest, PrometheusEmptyHistogramEmitsOnlyInfBucket) {
  tel::Registry::global().histogram("test.prom.empty");
  std::string Text = tel::Registry::global().renderPrometheus();
  EXPECT_NE(Text.find("kremlin_test_prom_empty_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(Text.find("kremlin_test_prom_empty_count 0\n"),
            std::string::npos);
}

// --- Trace-context propagation ----------------------------------------------

TEST_F(TelemetryTest, MintedTraceContextsAreWellFormedAndDistinct) {
  tel::TraceContext A = tel::mintTraceContext();
  tel::TraceContext B = tel::mintTraceContext();
  EXPECT_EQ(A.TraceId.size(), 32u);
  EXPECT_EQ(A.SpanId.size(), 16u);
  EXPECT_NE(A.TraceId, B.TraceId);
  EXPECT_NE(A.SpanId, B.SpanId);
  EXPECT_NE(tel::mintSpanId(), tel::mintSpanId());
  for (char C : A.TraceId + A.SpanId)
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(C)) &&
                !std::isupper(static_cast<unsigned char>(C)))
        << C;
}

TEST_F(TelemetryTest, TraceparentRoundTrips) {
  tel::TraceContext Ctx = tel::mintTraceContext();
  std::string Header = tel::formatTraceparent(Ctx);
  EXPECT_EQ(Header.size(), 55u);
  EXPECT_EQ(Header.rfind("00-", 0), 0u);
  tel::TraceContext Parsed;
  ASSERT_TRUE(tel::parseTraceparent(Header, Parsed));
  EXPECT_EQ(Parsed.TraceId, Ctx.TraceId);
  EXPECT_EQ(Parsed.SpanId, Ctx.SpanId);
}

TEST_F(TelemetryTest, MalformedTraceparentsAreRejected) {
  const char *Bad[] = {
      "",
      "garbage",
      "00-abc-def-01",                  // Too short.
      "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // Version.
      "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // Uppercase.
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333z-01", // Non-hex.
      "00-00000000000000000000000000000000-b7ad6b7169203331-01", // Zero trace.
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // Zero span.
      "00-0af7651916cd43dd8448eb211c80319c b7ad6b7169203331-01", // Bad dash.
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01 trailing",
  };
  for (const char *Header : Bad) {
    tel::TraceContext Out;
    EXPECT_FALSE(tel::parseTraceparent(Header, Out)) << Header;
  }
  // Oversized: a hostile header far past any sane length.
  std::string Oversized(4096, 'a');
  tel::TraceContext Out;
  EXPECT_FALSE(tel::parseTraceparent(Oversized, Out));
}

TEST_F(TelemetryTest, ScopedTraceContextInstallsAndNests) {
  EXPECT_EQ(tel::currentTraceContext(), nullptr);
  tel::TraceContext Outer = tel::mintTraceContext();
  {
    tel::ScopedTraceContext OuterScope(Outer);
    ASSERT_NE(tel::currentTraceContext(), nullptr);
    EXPECT_EQ(tel::currentTraceContext()->TraceId, Outer.TraceId);
    tel::TraceContext Inner = tel::mintTraceContext();
    {
      tel::ScopedTraceContext InnerScope(Inner);
      EXPECT_EQ(tel::currentTraceContext()->TraceId, Inner.TraceId);
    }
    EXPECT_EQ(tel::currentTraceContext()->TraceId, Outer.TraceId);
  }
  EXPECT_EQ(tel::currentTraceContext(), nullptr);
}

TEST_F(TelemetryTest, SpansRecordTheCurrentTraceId) {
  TraceCapture Capture;
  tel::TraceContext Ctx = tel::mintTraceContext();
  {
    tel::ScopedTraceContext Scope(Ctx);
    tel::Span S("test.traced", "test");
    tel::recordSpanAt("test.timed", "test", 10, 5);
    tel::instantEvent("test.instant", "test", {{"trace_id", Ctx.TraceId}});
  }
  { tel::Span Outside("test.untraced", "test"); }

  unsigned Stamped = 0;
  for (const tel::TraceEvent &E : Capture.take()) {
    bool HasId = false;
    for (const auto &[K, V] : E.Args)
      if (K == "trace_id" && V == Ctx.TraceId)
        HasId = true;
    if (HasId)
      ++Stamped;
    if (E.Name == "test.untraced") {
      EXPECT_FALSE(HasId);
    }
    if (E.Name == "test.timed") {
      EXPECT_EQ(E.TimeUs, 10u);
      EXPECT_EQ(E.DurUs, 5u);
      EXPECT_TRUE(HasId);
    }
  }
  EXPECT_EQ(Stamped, 3u); // Span + recordSpanAt + instant.
}

} // namespace

//===- support/Telemetry.cpp ----------------------------------------------===//

#include "support/Telemetry.h"

#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include "support/Prng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

using namespace kremlin;
using namespace kremlin::telemetry;

// --- Histogram --------------------------------------------------------------

uint64_t Histogram::quantile(double P) const {
  uint64_t Total = count();
  if (Total == 0)
    return 0;
  if (P < 0.0)
    P = 0.0;
  if (P > 1.0)
    P = 1.0;
  const uint64_t Lo = min();
  const uint64_t Hi = max();
  // Rank of the requested quantile among the sorted samples, 0-based. The
  // extremes are recorded exactly.
  uint64_t Rank = static_cast<uint64_t>(P * static_cast<double>(Total - 1));
  if (Rank == 0)
    return Lo;
  if (Rank >= Total - 1)
    return Hi;
  uint64_t Seen = 0;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    uint64_t N = bucket(I);
    if (Rank < Seen + N) {
      // Spread the bucket's N samples evenly over its range, clipped to the
      // observed [min, max]: sample K of N sits (K + 1/2) / N of the way
      // across, rounded to the nearest integer.
      uint64_t From = std::max(bucketLowerBound(I), Lo);
      uint64_t To = std::min(bucketUpperBound(I), Hi);
      if (To <= From)
        return From;
      double Frac = (static_cast<double>(Rank - Seen) + 0.5) /
                    static_cast<double>(N);
      uint64_t Offset = static_cast<uint64_t>(
          std::round(Frac * static_cast<double>(To - From)));
      return Offset >= To - From ? To : From + Offset;
    }
    Seen += N;
  }
  return Hi; // Reached only while record() or reset() races this read.
}

void Histogram::reset() {
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Min.store(UINT64_MAX, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
}

// --- Registry ---------------------------------------------------------------

Registry &Registry::global() {
  static Registry R;
  return R;
}

Counter &Registry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Gauge &Registry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *It->second;
}

Histogram &Registry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(std::string(Name), std::make_unique<Histogram>())
             .first;
  return *It->second;
}

std::vector<std::pair<std::string, double>> Registry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::pair<std::string, double>> Out;
  Out.reserve(Counters.size() + Gauges.size() + Histograms.size() * 6);
  for (const auto &[Name, C] : Counters)
    Out.emplace_back(Name, static_cast<double>(C->value()));
  for (const auto &[Name, G] : Gauges)
    Out.emplace_back(Name, G->value());
  for (const auto &[Name, H] : Histograms) {
    // An empty histogram has no smallest/largest/median sample; NaN (JSON
    // null, table "n/a") says so honestly where 0 would read as data.
    const bool Empty = H->count() == 0;
    const double NA = std::numeric_limits<double>::quiet_NaN();
    Out.emplace_back(Name + ".count", static_cast<double>(H->count()));
    Out.emplace_back(Name + ".sum", static_cast<double>(H->sum()));
    Out.emplace_back(Name + ".min",
                     Empty ? NA : static_cast<double>(H->min()));
    Out.emplace_back(Name + ".max",
                     Empty ? NA : static_cast<double>(H->max()));
    Out.emplace_back(Name + ".p50",
                     Empty ? NA : static_cast<double>(H->quantile(0.5)));
    Out.emplace_back(Name + ".p99",
                     Empty ? NA : static_cast<double>(H->quantile(0.99)));
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

JsonValue Registry::toJson() const {
  JsonValue Doc = JsonValue::makeObject();
  Doc.set("schema", JsonValue(1));
  Doc.set("kind", JsonValue("kremlin-metrics"));
  JsonValue Map = JsonValue::makeObject();
  for (const auto &[Name, Value] : snapshot())
    Map.set(Name, JsonValue(Value));
  Doc.set("metrics", std::move(Map));
  return Doc;
}

std::string Registry::renderTable() const {
  TablePrinter Table;
  Table.setHeader({"Metric", "Value"});
  for (const auto &[Name, Value] : snapshot()) {
    if (std::isnan(Value)) {
      Table.addRow({Name, "n/a"}); // Empty-histogram quantile/extremum.
      continue;
    }
    // Counters and counts are integral; print them without decimals.
    double Rounded = static_cast<double>(static_cast<uint64_t>(Value));
    Table.addRow({Name, Value == Rounded ? formatString("%.0f", Value)
                                         : formatString("%.3f", Value)});
  }
  return Table.render();
}

namespace {

/// serve.queue_wait_us -> kremlin_serve_queue_wait_us.
std::string prometheusName(std::string_view Name) {
  std::string Out = "kremlin_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  return Out;
}

std::string prometheusNumber(double V) {
  if (std::isnan(V))
    return "NaN";
  double Rounded = static_cast<double>(static_cast<int64_t>(V));
  return V == Rounded ? formatString("%.0f", V) : formatString("%.10g", V);
}

void prometheusHeader(std::string &Out, const std::string &PName,
                      const std::string &Name, const char *Type) {
  Out += "# HELP " + PName + " kremlin metric " + Name + "\n";
  Out += "# TYPE " + PName + " " + Type + "\n";
}

} // namespace

std::string Registry::renderPrometheus() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out;
  for (const auto &[Name, C] : Counters) {
    std::string PName = prometheusName(Name);
    prometheusHeader(Out, PName, Name, "counter");
    Out += PName + " " + formatString("%llu",
                                      static_cast<unsigned long long>(
                                          C->value())) + "\n";
  }
  for (const auto &[Name, G] : Gauges) {
    std::string PName = prometheusName(Name);
    prometheusHeader(Out, PName, Name, "gauge");
    Out += PName + " " + prometheusNumber(G->value()) + "\n";
  }
  for (const auto &[Name, H] : Histograms) {
    std::string PName = prometheusName(Name);
    prometheusHeader(Out, PName, Name, "histogram");
    // Cumulative buckets up to the one holding the max sample; the log2
    // upper bounds are inclusive, which matches Prometheus `le` exactly.
    // Bucket 64's bound is not finitely representable — +Inf covers it.
    uint64_t Cumulative = 0;
    if (H->count() > 0) {
      unsigned Last = std::min(Histogram::bucketFor(H->max()), 63u);
      for (unsigned I = 0; I <= Last; ++I) {
        Cumulative += H->bucket(I);
        Out += PName + formatString(
                           "_bucket{le=\"%llu\"} %llu\n",
                           static_cast<unsigned long long>(
                               Histogram::bucketUpperBound(I)),
                           static_cast<unsigned long long>(Cumulative));
      }
    }
    Out += PName + formatString("_bucket{le=\"+Inf\"} %llu\n",
                                static_cast<unsigned long long>(H->count()));
    Out += PName + formatString("_sum %llu\n",
                                static_cast<unsigned long long>(H->sum()));
    Out += PName + formatString("_count %llu\n",
                                static_cast<unsigned long long>(H->count()));
  }
  return Out;
}

void Registry::resetValues() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

// --- Trace ring and sinks ---------------------------------------------------

namespace {

/// One lock-sharded ring segment. It never wraps: filling it hands the
/// whole chunk to the sink.
struct TraceShard {
  std::mutex Mutex;
  std::vector<TraceEvent> Events;
};

TraceShard *shards() {
  static TraceShard Shards[NumTraceShards];
  return Shards;
}

TraceShard &shardForThisThread() {
  // Hash of the thread id, cached per thread.
  thread_local unsigned Shard =
      static_cast<unsigned>(std::hash<std::thread::id>()(
                                std::this_thread::get_id()) %
                            NumTraceShards);
  return shards()[Shard];
}

/// Whether a sink is installed: the one tracing switch, which the record
/// path reads without taking the sink mutex.
std::atomic<bool> TraceOn{false};

/// The installed sink.
struct SinkState {
  std::mutex Mutex;
  std::unique_ptr<TraceSink> Sink;
};

SinkState &sinkState() {
  static SinkState S;
  return S;
}

/// Events observed (recorded or not); the disabled-path cost.
Counter &eventCounter() {
  static Counter &C = Registry::global().counter("telemetry.events");
  return C;
}

/// Streaming-path accounting. recorded counts ring insertions,
/// flushes/flushed_events count chunks handed to the sink, and dropped
/// counts only the events of chunks that raced the sink's removal.
Counter &recordedCounter() {
  static Counter &C = Registry::global().counter("telemetry.trace.recorded");
  return C;
}
Counter &droppedCounter() {
  static Counter &C = Registry::global().counter("telemetry.trace.dropped");
  return C;
}
Counter &flushCounter() {
  static Counter &C = Registry::global().counter("telemetry.trace.flushes");
  return C;
}
Counter &flushedEventsCounter() {
  static Counter &C =
      Registry::global().counter("telemetry.trace.flushed_events");
  return C;
}

/// Compacted thread id: small integers in first-seen order, stable for
/// the process lifetime.
uint32_t compactTid() {
  static std::mutex M;
  static std::map<std::thread::id, uint32_t> Ids;
  thread_local uint32_t Cached = [] {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, Inserted] = Ids.emplace(std::this_thread::get_id(),
                                      static_cast<uint32_t>(Ids.size() + 1));
    (void)Inserted;
    return It->second;
  }();
  return Cached;
}

/// Hands one chunk to the installed sink; events of chunks that race with
/// sink removal are dropped with accounting, never lost silently.
void writeChunkToSink(std::vector<TraceEvent> Chunk) {
  if (Chunk.empty())
    return;
  size_t N = Chunk.size();
  SinkState &S = sinkState();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (!S.Sink) {
    droppedCounter().add(N);
    return;
  }
  S.Sink->writeBatch(std::move(Chunk));
  flushCounter().add();
  flushedEventsCounter().add(N);
}

void recordEvent(TraceEvent E) {
  E.Tid = compactTid();
  TraceShard &Shard = shardForThisThread();
  std::vector<TraceEvent> Chunk;
  {
    std::lock_guard<std::mutex> Lock(Shard.Mutex);
    if (Shard.Events.size() >= TraceShardEvents) {
      // Chunk boundary: move the full shard out (under the shard lock)
      // and stream it after release, so sink I/O never blocks siblings.
      Chunk = std::move(Shard.Events);
      Shard.Events = {};
      Shard.Events.reserve(TraceShardEvents);
    }
    Shard.Events.push_back(std::move(E));
    recordedCounter().add();
  }
  writeChunkToSink(std::move(Chunk));
}

/// Drains every shard into a single chronological vector.
std::vector<TraceEvent> drainShards() {
  std::vector<TraceEvent> Out;
  for (unsigned I = 0; I < NumTraceShards; ++I) {
    TraceShard &Shard = shards()[I];
    std::lock_guard<std::mutex> Lock(Shard.Mutex);
    Out.insert(Out.end(), std::make_move_iterator(Shard.Events.begin()),
               std::make_move_iterator(Shard.Events.end()));
    Shard.Events.clear();
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.TimeUs < B.TimeUs;
                   });
  return Out;
}

std::chrono::steady_clock::time_point processStart() {
  static const std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  return Start;
}

/// One event as a Chrome trace_event object.
JsonValue traceEventToJson(const TraceEvent &E) {
  JsonValue Ev = JsonValue::makeObject();
  Ev.set("name", JsonValue(E.Name));
  Ev.set("cat", JsonValue(E.Category));
  Ev.set("pid", JsonValue(1));
  Ev.set("tid", JsonValue(E.Tid));
  Ev.set("ts", JsonValue(static_cast<double>(E.TimeUs)));
  switch (E.K) {
  case TraceEvent::Kind::Span:
    Ev.set("ph", JsonValue("X"));
    Ev.set("dur", JsonValue(static_cast<double>(E.DurUs)));
    break;
  case TraceEvent::Kind::Instant:
    Ev.set("ph", JsonValue("i"));
    Ev.set("s", JsonValue("t"));
    break;
  case TraceEvent::Kind::CounterSample:
    Ev.set("ph", JsonValue("C"));
    break;
  }
  JsonValue Args = JsonValue::makeObject();
  if (E.K == TraceEvent::Kind::CounterSample)
    Args.set("value", JsonValue(E.Value));
  for (const auto &[Key, Value] : E.Args)
    Args.set(Key, JsonValue(Value));
  if (Args.size() > 0)
    Ev.set("args", std::move(Args));
  return Ev;
}

/// The file sink's write buffer: serialized JSON accumulates until this
/// many bytes, then one fwrite+fflush runs.
constexpr size_t FileSinkFlushBytes = 64 * 1024;

} // namespace

bool kremlin::telemetry::traceEnabled() {
  return TraceOn.load(std::memory_order_relaxed);
}

// --- Sinks ------------------------------------------------------------------

void InMemoryTraceSink::writeBatch(std::vector<TraceEvent> Batch) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.insert(Events.end(), std::make_move_iterator(Batch.begin()),
                std::make_move_iterator(Batch.end()));
}

std::vector<TraceEvent> InMemoryTraceSink::take() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<TraceEvent> Out = std::move(Events);
  Events = {};
  return Out;
}

Expected<std::unique_ptr<FileTraceSink>>
FileTraceSink::open(std::string Path) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::error(ErrorCode::IoError,
                         "cannot open trace output for writing")
        .withStage("trace-sink")
        .withInput(Path);
  std::unique_ptr<FileTraceSink> Sink(new FileTraceSink());
  Sink->Path = std::move(Path);
  Sink->File = F;
  Sink->Buf = "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  return Sink;
}

FileTraceSink::~FileTraceSink() { (void)close(); }

void FileTraceSink::writeBatch(std::vector<TraceEvent> Batch) {
  if (Closed)
    return;
  for (const TraceEvent &E : Batch) {
    Buf += WroteEvent ? ",\n    " : "\n    ";
    WroteEvent = true;
    Buf += traceEventToJson(E).serialize(2);
  }
  flushBuffer(/*Force=*/false);
}

void FileTraceSink::flushBuffer(bool Force) {
  if (!File || Buf.empty() || (!Force && Buf.size() < FileSinkFlushBytes))
    return;
  std::FILE *F = static_cast<std::FILE *>(File);
  size_t Written = std::fwrite(Buf.data(), 1, Buf.size(), F);
  std::fflush(F);
  Registry::global().counter("telemetry.trace.file_flushes").add();
  Registry::global().counter("telemetry.trace.file_bytes").add(Written);
  if (Written != Buf.size())
    CloseStatus = Status::error(ErrorCode::IoError, "short write")
                      .withStage("trace-sink")
                      .withInput(Path);
  Buf.clear();
}

Status FileTraceSink::close() {
  if (Closed)
    return CloseStatus;
  Closed = true;
  Buf += WroteEvent ? "\n  ]\n}\n" : "]\n}\n";
  flushBuffer(/*Force=*/true);
  if (File) {
    if (std::fclose(static_cast<std::FILE *>(File)) != 0 &&
        CloseStatus.ok())
      CloseStatus = Status::error(ErrorCode::IoError, "close failed")
                        .withStage("trace-sink")
                        .withInput(Path);
    File = nullptr;
  }
  return CloseStatus;
}

Status kremlin::telemetry::setTraceSink(std::unique_ptr<TraceSink> Sink) {
  Status Prev = closeTraceSink();
  if (!Sink)
    return Prev;
  processStart(); // Pin the epoch before the first span.
  {
    SinkState &S = sinkState();
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Sink = std::move(Sink);
  }
  TraceOn.store(true, std::memory_order_relaxed);
  return Prev;
}

TraceSink *kremlin::telemetry::traceSink() {
  SinkState &S = sinkState();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return S.Sink.get();
}

void kremlin::telemetry::flushTraceRings() {
  if (traceEnabled())
    writeChunkToSink(drainShards());
}

Status kremlin::telemetry::closeTraceSink() {
  TraceOn.store(false, std::memory_order_relaxed);
  std::unique_ptr<TraceSink> Sink;
  {
    SinkState &S = sinkState();
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Sink = std::move(S.Sink);
  }
  if (!Sink)
    return Status();
  // Residual ring contents belong to this sink; stream them before the
  // tail is written. A recorder that filled its shard concurrently finds
  // the sink gone, and its chunk lands in the drop accounting.
  std::vector<TraceEvent> Residue = drainShards();
  if (!Residue.empty()) {
    size_t N = Residue.size();
    Sink->writeBatch(std::move(Residue));
    flushCounter().add();
    flushedEventsCounter().add(N);
  }
  return Sink->close();
}

uint64_t kremlin::telemetry::nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - processStart())
          .count());
}

void kremlin::telemetry::instantEvent(
    std::string Name, std::string Category,
    std::vector<std::pair<std::string, std::string>> Args) {
  eventCounter().add();
  if (!traceEnabled())
    return;
  TraceEvent E;
  E.K = TraceEvent::Kind::Instant;
  E.Name = std::move(Name);
  E.Category = std::move(Category);
  E.TimeUs = nowUs();
  E.Args = std::move(Args);
  recordEvent(std::move(E));
}

void kremlin::telemetry::counterSample(std::string Name, double Value) {
  eventCounter().add();
  if (!traceEnabled())
    return;
  TraceEvent E;
  E.K = TraceEvent::Kind::CounterSample;
  E.Name = std::move(Name);
  E.Category = "metrics";
  E.TimeUs = nowUs();
  E.Value = Value;
  recordEvent(std::move(E));
}

void kremlin::telemetry::recordSpanAt(
    std::string Name, std::string Category, uint64_t StartUs, uint64_t DurUs,
    std::vector<std::pair<std::string, std::string>> Args) {
  eventCounter().add();
  if (!traceEnabled())
    return;
  if (const TraceContext *Ctx = currentTraceContext())
    Args.emplace_back("trace_id", Ctx->TraceId);
  TraceEvent E;
  E.K = TraceEvent::Kind::Span;
  E.Name = std::move(Name);
  E.Category = std::move(Category);
  E.TimeUs = StartUs;
  E.DurUs = DurUs;
  E.Args = std::move(Args);
  recordEvent(std::move(E));
}

// --- Trace-context propagation ----------------------------------------------

namespace {

/// Unique-per-process id bits: a SplitMix64 stream seeded once from the
/// clock and some address entropy. Correlation ids, not secrets.
uint64_t randomIdBits() {
  static std::mutex M;
  static Prng Rng([] {
    uint64_t Seed = static_cast<uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count());
    Seed ^= static_cast<uint64_t>(
        std::hash<std::thread::id>()(std::this_thread::get_id()));
    Seed ^= reinterpret_cast<uintptr_t>(&Rng);
    return Seed;
  }());
  std::lock_guard<std::mutex> Lock(M);
  return Rng.next();
}

bool isLowerHex(std::string_view S) {
  for (char C : S)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

bool isAllZero(std::string_view S) {
  return S.find_first_not_of('0') == std::string_view::npos;
}

thread_local const TraceContext *CurrentCtx = nullptr;

} // namespace

TraceContext kremlin::telemetry::mintTraceContext() {
  TraceContext Ctx;
  Ctx.TraceId = formatString(
      "%016llx%016llx", static_cast<unsigned long long>(randomIdBits()),
      static_cast<unsigned long long>(randomIdBits()));
  if (isAllZero(Ctx.TraceId))
    Ctx.TraceId.back() = '1'; // The all-zero id is reserved ("no trace").
  Ctx.SpanId = mintSpanId();
  return Ctx;
}

std::string kremlin::telemetry::mintSpanId() {
  std::string Id = formatString(
      "%016llx", static_cast<unsigned long long>(randomIdBits()));
  if (isAllZero(Id))
    Id.back() = '1';
  return Id;
}

std::string kremlin::telemetry::formatTraceparent(const TraceContext &Ctx) {
  return "00-" + Ctx.TraceId + "-" + Ctx.SpanId + "-01";
}

bool kremlin::telemetry::parseTraceparent(std::string_view Header,
                                          TraceContext &Out) {
  // 00-{32 hex}-{16 hex}-{2 hex}: 55 chars exactly. Anything longer
  // (oversized), shorter (truncated), or differently cased is rejected.
  if (Header.size() != 55)
    return false;
  if (Header.substr(0, 3) != "00-" || Header[35] != '-' || Header[52] != '-')
    return false;
  std::string_view TraceId = Header.substr(3, 32);
  std::string_view SpanId = Header.substr(36, 16);
  std::string_view Flags = Header.substr(53, 2);
  if (!isLowerHex(TraceId) || !isLowerHex(SpanId) || !isLowerHex(Flags))
    return false;
  if (isAllZero(TraceId) || isAllZero(SpanId))
    return false;
  Out.TraceId = std::string(TraceId);
  Out.SpanId = std::string(SpanId);
  return true;
}

ScopedTraceContext::ScopedTraceContext(TraceContext Ctx)
    : Ctx(std::move(Ctx)), Prev(CurrentCtx) {
  CurrentCtx = this->Ctx.valid() ? &this->Ctx : Prev;
}

ScopedTraceContext::~ScopedTraceContext() { CurrentCtx = Prev; }

const TraceContext *kremlin::telemetry::currentTraceContext() {
  return CurrentCtx;
}

// --- Span -------------------------------------------------------------------

Span::Span(std::string_view Name, std::string_view Category) {
  eventCounter().add(); // The whole disabled-path cost.
  if (!traceEnabled())
    return;
  this->Name = Name;
  this->Category = Category;
  if (const TraceContext *Ctx = currentTraceContext())
    Args.emplace_back("trace_id", Ctx->TraceId);
  Recording = true;
  StartUs = nowUs();
}

void Span::arg(std::string_view Key, std::string Value) {
  if (Recording)
    Args.emplace_back(std::string(Key), std::move(Value));
}

void Span::end() {
  if (!Recording)
    return;
  Recording = false;
  TraceEvent E;
  E.K = TraceEvent::Kind::Span;
  E.Name = std::move(Name);
  E.Category = std::move(Category);
  E.TimeUs = StartUs;
  E.DurUs = nowUs() - StartUs;
  E.Args = std::move(Args);
  recordEvent(std::move(E));
}

// --- Logger -----------------------------------------------------------------

namespace {

LogLevel parseLogLevelEnv() {
  const char *Env = std::getenv("KREMLIN_LOG");
  if (!Env || !*Env)
    return LogLevel::Warn;
  if (std::strcmp(Env, "error") == 0 || std::strcmp(Env, "0") == 0)
    return LogLevel::Error;
  if (std::strcmp(Env, "warn") == 0 || std::strcmp(Env, "1") == 0)
    return LogLevel::Warn;
  if (std::strcmp(Env, "info") == 0 || std::strcmp(Env, "2") == 0)
    return LogLevel::Info;
  if (std::strcmp(Env, "debug") == 0 || std::strcmp(Env, "3") == 0)
    return LogLevel::Debug;
  return LogLevel::Warn;
}

std::atomic<unsigned char> &logLevelStorage() {
  static std::atomic<unsigned char> Level{
      static_cast<unsigned char>(parseLogLevelEnv())};
  return Level;
}

} // namespace

const char *kremlin::telemetry::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Error:
    return "error";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Info:
    return "info";
  case LogLevel::Debug:
    return "debug";
  }
  return "?";
}

LogLevel kremlin::telemetry::logLevel() {
  return static_cast<LogLevel>(
      logLevelStorage().load(std::memory_order_relaxed));
}

void kremlin::telemetry::setLogLevel(LogLevel L) {
  logLevelStorage().store(static_cast<unsigned char>(L),
                          std::memory_order_relaxed);
}

void kremlin::telemetry::logMessage(LogLevel L, const char *Component,
                                    std::string_view Msg) {
  static Counter &Suppressed =
      Registry::global().counter("log.suppressed");
  if (!logEnabled(L)) {
    Suppressed.add();
    return;
  }
  static Counter *Emitted[4] = {
      &Registry::global().counter("log.errors"),
      &Registry::global().counter("log.warnings"),
      &Registry::global().counter("log.infos"),
      &Registry::global().counter("log.debugs"),
  };
  Emitted[static_cast<unsigned>(L)]->add();
  // One mutex keeps concurrent lines from interleaving.
  static std::mutex OutMutex;
  std::lock_guard<std::mutex> Lock(OutMutex);
  std::fprintf(stderr, "kremlin[%s] %s: %.*s\n", logLevelName(L), Component,
               static_cast<int>(Msg.size()), Msg.data());
}

void kremlin::telemetry::logf(LogLevel L, const char *Component,
                              const char *Fmt, ...) {
  if (!logEnabled(L)) {
    logMessage(L, Component, ""); // Counts as suppressed, emits nothing.
    return;
  }
  va_list Args;
  va_start(Args, Fmt);
  char Buf[1024];
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  logMessage(L, Component, Buf);
}

//===- support/Telemetry.h - Self-telemetry for the pipeline ----*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide self-telemetry ("profile the profiler"): a thread-safe
/// metrics registry (counters, gauges, log2-bucket histograms), RAII Span
/// scopes recording into a bounded, lock-sharded trace ring that streams
/// completed chunks through a pluggable TraceSink (in-memory for tests,
/// buffered incremental Chrome trace_event JSON for files), and a small
/// leveled structured logger (level via the KREMLIN_LOG env var).
///
/// Cost model: spans and instant events stay compiled-in everywhere
/// because the disabled path — tracing off — is one relaxed atomic
/// increment per event (the event counter) with no clock read and no
/// allocation. Tracing is on exactly while a sink is installed. The
/// enabled path is one shard-mutex push into a fixed-size ring; when a
/// shard fills, the whole chunk is handed to the sink, so sink cost
/// (serialization, file writes) is amortized over the chunk and telemetry
/// memory stays bounded no matter how long the run. Counters
/// and gauges are always live; they are single relaxed atomic operations.
/// Histograms add a few relaxed increments. bench_micro_telemetry
/// measures all of these paths.
///
/// Hot-path idiom: resolve the metric once, then update through the
/// reference (registration takes a mutex, updates never do):
///
///   static telemetry::Counter &Reads =
///       telemetry::Registry::global().counter("shadow.reads");
///   Reads.add(N);
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_TELEMETRY_H
#define KREMLIN_SUPPORT_TELEMETRY_H

#include "support/Json.h"
#include "support/Status.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kremlin::telemetry {

// --- Metrics ----------------------------------------------------------------

/// Monotonic counter. All operations are relaxed atomics.
class Counter {
public:
  void add(uint64_t Delta = 1) {
    V.fetch_add(Delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-write-wins double value (stored as its bit pattern).
class Gauge {
public:
  void set(double Value) {
    Bits.store(std::bit_cast<uint64_t>(Value), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(Bits.load(std::memory_order_relaxed));
  }
  void reset() { Bits.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Bits{0}; // 0 is the bit pattern of 0.0.
};

/// Histogram over uint64 samples with fixed log2-scale buckets: bucket i
/// counts samples whose bit width is i, i.e. bucket 0 holds the value 0
/// and bucket i >= 1 holds [2^(i-1), 2^i). Concurrent record() calls are
/// lossless (every update is a relaxed atomic RMW).
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65;

  void record(uint64_t Value) {
    Buckets[bucketFor(Value)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Value, std::memory_order_relaxed);
    atomicMin(Min, Value);
    atomicMax(Max, Value);
  }

  static unsigned bucketFor(uint64_t Value) {
    return static_cast<unsigned>(std::bit_width(Value));
  }
  /// Inclusive upper bound of \p Bucket (its largest representable value).
  static uint64_t bucketUpperBound(unsigned Bucket) {
    return Bucket == 0 ? 0 : (Bucket >= 64 ? UINT64_MAX : (1ull << Bucket) - 1);
  }
  /// Inclusive lower bound of \p Bucket (its smallest value).
  static uint64_t bucketLowerBound(unsigned Bucket) {
    return Bucket == 0 ? 0 : 1ull << (Bucket - 1);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Smallest recorded sample; 0 when empty.
  uint64_t min() const {
    uint64_t V = Min.load(std::memory_order_relaxed);
    return V == UINT64_MAX ? 0 : V;
  }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucket(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// The \p P-quantile (P in [0,1]), always within [min(), max()]:
  /// quantile(0) is min() and quantile(1) is max(), so a single sample
  /// reads back exactly. In between it interpolates linearly inside the
  /// log2 bucket holding the rank, so it is exact within a factor of 2.
  uint64_t quantile(double P) const;

  void reset();

private:
  static void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V < Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V > Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
  std::atomic<uint64_t> Buckets[NumBuckets]{};
};

/// The process-wide metric registry. Metrics are created on first use and
/// never deleted, so references stay valid for the process lifetime;
/// creation takes a mutex, updates are lock-free through the returned
/// reference. resetValues() zeroes everything in place (tests, and the
/// CLI between replans) without invalidating references.
class Registry {
public:
  static Registry &global();

  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Flat snapshot: every metric as (name, value) in name order.
  /// Histograms expand to <name>.count/.sum/.min/.max/.p50/.p99; an empty
  /// histogram's min/max/p50/p99 are NaN (there is no sample to report),
  /// which serializes as JSON null and renders as "n/a" — never a
  /// sentinel value masquerading as data.
  std::vector<std::pair<std::string, double>> snapshot() const;

  /// Serializes the snapshot as the same {"metrics": {...}} document shape
  /// kremlin-bench emits, so parseMetricsJson reads it back.
  JsonValue toJson() const;

  /// Renders the snapshot as an aligned two-column table. NaN values
  /// (empty-histogram quantiles) render as "n/a".
  std::string renderTable() const;

  /// Renders every metric in the Prometheus text exposition format:
  /// names are prefixed `kremlin_` with non-alphanumerics mapped to '_',
  /// each sample family is preceded by `# HELP`/`# TYPE` lines, and
  /// histograms emit their log2 buckets as cumulative `_bucket{le="..."}`
  /// series (inclusive upper bounds) closed by `le="+Inf"`, plus `_sum`
  /// and `_count`.
  std::string renderPrometheus() const;

  /// Zeroes every registered metric; references remain valid.
  void resetValues();

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
};

// --- Trace ring, sinks, and spans -------------------------------------------

/// One recorded trace event (Chrome trace_event phases X / i / C).
struct TraceEvent {
  enum class Kind : unsigned char { Span, Instant, CounterSample };
  Kind K = Kind::Span;
  std::string Name;
  std::string Category;
  uint64_t TimeUs = 0; ///< Microseconds since process start.
  uint64_t DurUs = 0;  ///< Span only.
  uint32_t Tid = 0;    ///< Compacted thread id (first-seen order).
  double Value = 0.0;  ///< CounterSample only.
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Number of mutex-sharded ring segments (threads hash onto shards).
inline constexpr unsigned NumTraceShards = 16;

/// Events one shard holds before it hands its chunk to the sink, so the
/// ring never holds more than NumTraceShards * TraceShardEvents events.
inline constexpr size_t TraceShardEvents = 4096;

/// Receives completed event chunks from the trace ring. writeBatch() is
/// always called under the process-wide sink lock, so implementations need
/// no synchronization of their own. close() finalizes the output (called
/// once by closeTraceSink() or the destructor).
class TraceSink {
public:
  virtual ~TraceSink() = default;

  /// Consumes one flushed ring chunk (events in ring order, one shard).
  virtual void writeBatch(std::vector<TraceEvent> Batch) = 0;

  /// Finalizes the sink's output; ok unless output could not be completed.
  virtual Status close() { return Status(); }
};

/// Accumulates every batch in memory (the test sink).
class InMemoryTraceSink : public TraceSink {
public:
  void writeBatch(std::vector<TraceEvent> Batch) override;

  /// Takes the accumulated events (thread-safe; clears the store).
  std::vector<TraceEvent> take();

private:
  std::mutex Mutex;
  std::vector<TraceEvent> Events;
};

/// Streams valid Chrome trace_event JSON to a file incrementally: the
/// document header is written on open, each batch appends serialized
/// events to an in-memory buffer that flushes to disk every 64 KiB, and
/// close() (or destruction) writes the array/object tail — so the file
/// parses as {"displayTimeUnit": "ms", "traceEvents": [...]} even for
/// runs long past what an in-memory buffer could hold. Counters:
/// telemetry.trace.file_flushes / telemetry.trace.file_bytes.
class FileTraceSink : public TraceSink {
public:
  /// Opens \p Path for writing and emits the document header. IoError when
  /// the file cannot be created.
  static Expected<std::unique_ptr<FileTraceSink>> open(std::string Path);

  ~FileTraceSink() override;
  void writeBatch(std::vector<TraceEvent> Batch) override;
  Status close() override;

  const std::string &path() const { return Path; }

private:
  FileTraceSink() = default;

  void flushBuffer(bool Force);

  std::string Path;
  void *File = nullptr; ///< std::FILE*, kept opaque to spare the include.
  std::string Buf;
  bool WroteEvent = false;
  bool Closed = false;
  Status CloseStatus;
};

/// Whether span/instant/counter-sample calls record: true exactly while a
/// sink is installed. When false they degrade to one relaxed counter
/// increment.
bool traceEnabled();

/// Installs \p Sink and turns tracing on. An already-installed sink is
/// flushed and closed first (its close status is returned — the new sink
/// is installed regardless). Passing nullptr closes the current sink and
/// turns tracing off.
Status setTraceSink(std::unique_ptr<TraceSink> Sink);

/// The installed sink (nullptr when none). Only for tests/inspection;
/// unsynchronized use while tracing is racy by nature.
TraceSink *traceSink();

/// Drains the shard rings into the installed sink without closing it.
/// No-op when no sink is installed.
void flushTraceRings();

/// Turns tracing off, then flushTraceRings() + sink close + uninstall.
/// Returns the sink's close status (ok when no sink was installed).
Status closeTraceSink();

/// Microseconds since process start (monotonic).
uint64_t nowUs();

/// Records an instant event (Chrome phase "i") when tracing is enabled.
void instantEvent(std::string Name, std::string Category,
                  std::vector<std::pair<std::string, std::string>> Args = {});

/// Records a complete span (Chrome phase "X") with explicit timestamps —
/// for durations measured before the event is emitted (e.g. the queue
/// wait a request accrued before its handler started). Picks up the
/// current trace context like Span does.
void recordSpanAt(std::string Name, std::string Category, uint64_t StartUs,
                  uint64_t DurUs,
                  std::vector<std::pair<std::string, std::string>> Args = {});

/// Records a counter sample (Chrome phase "C") when tracing is enabled.
void counterSample(std::string Name, double Value);

/// RAII scope recording one complete event (Chrome phase "X") into the
/// trace buffer. When tracing is disabled the constructor is a single
/// relaxed atomic increment and the destructor a branch.
class Span {
public:
  explicit Span(std::string_view Name, std::string_view Category = "pipeline");
  ~Span() { end(); }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a key/value argument (dropped when not recording).
  void arg(std::string_view Key, std::string Value);

  /// Ends the span early (idempotent; the destructor is then a no-op).
  void end();

private:
  std::string Name;
  std::string Category;
  std::vector<std::pair<std::string, std::string>> Args;
  uint64_t StartUs = 0;
  bool Recording = false;
};

// --- Trace-context propagation ----------------------------------------------
//
// One request's story spans processes: `kremlin push` mints a 16-byte
// trace id, stamps each attempt with a fresh 8-byte span id, and sends
// both as a W3C-traceparent-style header; the serve side adopts the id
// into its request span. Every span recorded while a ScopedTraceContext
// is active carries a `trace_id` arg, so one grep over the exported
// Chrome trace stitches client retries and server handling together.

/// A propagated trace identity. Ids are lowercase hex: 32 chars (16
/// bytes) for the trace, 16 chars (8 bytes) for the span.
struct TraceContext {
  std::string TraceId;
  std::string SpanId;

  bool valid() const { return !TraceId.empty(); }
};

/// Mints a fresh context (new trace id + span id). Ids are unique per
/// process and seeded from the clock — collision-resistant correlation
/// ids, not security tokens.
TraceContext mintTraceContext();

/// Mints a fresh 16-hex-char span id (one per push attempt).
std::string mintSpanId();

/// The wire format: `00-<trace-id>-<span-id>-01` (W3C traceparent,
/// version 00, sampled flag).
std::string formatTraceparent(const TraceContext &Ctx);

/// Parses a traceparent header. Strict: exactly version "00", lowercase
/// hex, correct lengths, non-zero ids — anything else (malformed,
/// oversized, truncated) returns false and the caller mints a fresh
/// context instead, so a garbage header can never poison the trace.
bool parseTraceparent(std::string_view Header, TraceContext &Out);

/// Installs \p Ctx as the calling thread's current trace context for the
/// scope's lifetime (nesting restores the previous one). Spans recorded
/// inside the scope automatically carry a `trace_id` arg.
class ScopedTraceContext {
public:
  explicit ScopedTraceContext(TraceContext Ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext &) = delete;
  ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

private:
  TraceContext Ctx;
  const TraceContext *Prev;
};

/// The calling thread's current context (nullptr outside any scope).
const TraceContext *currentTraceContext();

// --- Structured leveled logger ----------------------------------------------

enum class LogLevel : unsigned char { Error = 0, Warn = 1, Info = 2, Debug = 3 };

const char *logLevelName(LogLevel L);

/// Current threshold. First use reads KREMLIN_LOG (error|warn|info|debug,
/// or a digit 0-3); the default is warn.
LogLevel logLevel();
/// Programmatic override (tests, tools).
void setLogLevel(LogLevel L);

inline bool logEnabled(LogLevel L) { return L <= logLevel(); }

/// Emits one structured line to stderr when \p L passes the threshold:
///   kremlin[<level>] <component>: <message>
/// Suppressed messages cost a level check plus one relaxed increment of
/// the log.suppressed counter.
void logMessage(LogLevel L, const char *Component, std::string_view Msg);

/// printf-style logMessage; formats only when the level is enabled.
void logf(LogLevel L, const char *Component, const char *Fmt, ...)
    __attribute__((format(printf, 3, 4)));

inline void logError(const char *Component, std::string_view Msg) {
  logMessage(LogLevel::Error, Component, Msg);
}
inline void logWarn(const char *Component, std::string_view Msg) {
  logMessage(LogLevel::Warn, Component, Msg);
}
inline void logInfo(const char *Component, std::string_view Msg) {
  logMessage(LogLevel::Info, Component, Msg);
}
inline void logDebug(const char *Component, std::string_view Msg) {
  logMessage(LogLevel::Debug, Component, Msg);
}

} // namespace kremlin::telemetry

#endif // KREMLIN_SUPPORT_TELEMETRY_H

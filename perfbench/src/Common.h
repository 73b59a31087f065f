//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pieces every workload of the repository benchmark shares: run options,
/// raw-sample statistics, the result record kbench prints, and the
/// in-memory span recorder of the traced run.
///
/// Percentiles are always computed from raw samples, never from
/// telemetry::Histogram (whose quantile() answers a log2 bucket bound).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PERFBENCH_COMMON_H
#define KREMLIN_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace kremlin {
class DictionaryCompressor;
} // namespace kremlin

namespace kbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Microseconds since the first call in this process (trace timestamps).
uint64_t traceNowUs();

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Chrome trace_event JSON written by the traced run ("" = none).
  std::string TraceOut;
  /// suite-profile's pinned outputs, one row per (variant, program).
  std::string Golden;
};

/// Raw samples of one quantity.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  size_t size() const { return Values.size(); }
  const std::vector<double> &values() const { return Values; }
  double median() const;
  /// The highest order statistic that still has at least ten samples
  /// beyond it: x_(n-10) of n sorted samples; the maximum when n < 11.
  double tail() const;
  /// Percentile rank of tail(): 100 * (n - 10) / n (100 when n < 11).
  double tailPercentile() const;

private:
  std::vector<double> sorted() const;
  std::vector<double> Values;
};

/// Scales timings to a nominal host speed.
///
/// A shared host's speed drifts by tens of percent from one minute to the
/// next, and a slow spell often outlasts a whole run, so no statistic of raw
/// times stays steady from run to run. The pacer times a fixed integer
/// kernel that is not Kremlin code, the pace kernel, between the timed
/// intervals. It scales each interval by NominalMs over the mean of the
/// kernel's times just before and just after it. The kernel then runs at
/// the same host speed as the interval, and the slowdown cancels out.
class Pacer {
public:
  /// About the pace kernel's time on a quiet 4-vCPU VM (GCC 12, -O3).
  static constexpr double NominalMs = 13.0;

  /// Times the kernel once: the "before" time of the next interval.
  Pacer() { mark(); }
  /// Re-times the kernel after work that is not to be paced.
  void mark() { Last = kernelMs(); }
  /// Scales \p T, the duration of what ran since the previous mark() or
  /// scale(), to the nominal pace, and marks.
  double scale(double T);
  /// Every time of the kernel, in ms.
  const Samples &kernelTimes() const { return Times; }

private:
  double kernelMs();
  double Last = 0;
  Samples Times;
};

/// Everything one run reports. Metrics are keyed by the names listed in
/// BENCHMARK.json; Lines are the human-readable report printed before the
/// final JSON line.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> PerLayer;
  std::vector<std::string> Lines;
  /// First few failure reasons (all failures are counted).
  std::vector<std::string> Failures;

  void fail(const std::string &Why);
  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Reports a latency distribution under \p Name ("program_ms") as
  /// Name.p50 / Name.tail lines with the sample count and tail rank.
  void latencyLine(const std::string &Name, const Samples &S);
  /// Sets setup_s to the median of \p Paced, the paced set-up times in
  /// seconds, and states every paced and every raw (\p Raw) sample.
  void setupLine(const Samples &Paced, const Samples &Raw);
  /// Sets pass_ms.paced to the median of \p PacedPass, the paced pass
  /// times, and states how \p P paced them.
  void pacedPassLine(const Samples &PacedPass, const Pacer &P);
};

/// How many passes over its inputs a run makes, and when it sets up.
///
/// An untraced run makes a fixed number of passes, Seconds / NominalPassS,
/// so a timing's sample count n, and with it the rank its .tail lands on,
/// is the same on every commit whatever its speed. Only a build slower than
/// CapFactor x the nominal one is cut short (the report says so). Set-up
/// runs SetupReps times, spread evenly over the passes, so the median set-up
/// time sees the same host conditions as the passes do. A traced run, whose
/// timings are not gated, sets up once and measures for Seconds.
class PassBudget {
public:
  static constexpr double CapFactor = 3.0;

  PassBudget(const Options &O, double NominalPassS, unsigned SetupReps);
  /// Whether to make another pass after \p Done passes.
  bool more(unsigned Done) const;
  /// Whether set-up runs before pass \p Pass (0-based).
  bool setupDue(unsigned Pass) const;
  /// Passes an untraced run makes when not cut short.
  unsigned target() const { return Target; }
  double elapsedS() const { return msBetween(Start, Clock::now()) / 1000.0; }

private:
  bool Trace;
  double Seconds;
  unsigned Target;
  unsigned SetupReps;
  Clock::time_point Start;
};

/// Runs \p Fn and returns its duration in seconds.
template <typename Fn> double timeS(Fn &&F) {
  Clock::time_point T0 = Clock::now();
  F();
  return msBetween(T0, Clock::now()) / 1000.0;
}

/// One recorded span. Parent is an index into the recorder, -1 for none.
struct SpanRecord {
  std::string Name;
  std::string Layer;
  std::string Input;
  uint64_t StartUs = 0;
  uint64_t DurUs = 0;
  int64_t Parent = -1;
  uint32_t Tid = 0;
};

/// The traced run's span store: spans live in memory and are written once,
/// at the end, as Chrome trace_event JSON. Thread-safe.
class Tracer {
public:
  /// Opens a span starting now; returns its id for close().
  int64_t open(std::string Name, std::string Layer, std::string Input,
               int64_t Parent = -1);
  void close(int64_t Id);
  /// Records a finished span with explicit timing.
  int64_t record(std::string Name, std::string Layer, std::string Input,
                 uint64_t StartUs, uint64_t DurUs, int64_t Parent = -1);

  /// Per-span self time in microseconds: duration minus the part of the
  /// interval its direct children cover.
  std::vector<uint64_t> selfTimesUs() const;
  /// Self time in ms summed per span name over spans [Begin, End).
  std::map<std::string, double> selfMsByName(size_t Begin, size_t End) const;
  std::vector<SpanRecord> spans() const;
  size_t size() const;

  /// Writes {"traceEvents": [...]} with one "X" event per span.
  bool writeChromeJson(const std::string &Path) const;

private:
  mutable std::mutex Mutex;
  std::vector<SpanRecord> Spans; ///< Guarded by Mutex.
};

/// Times one call into a layer as a span of \p T (when non-null) and
/// returns its result.
template <typename Fn>
auto traced(Tracer *T, const char *Name, const char *Layer,
            const std::string &Input, int64_t Parent, Fn &&Call) {
  int64_t Id = T ? T->open(Name, Layer, Input, Parent) : -1;
  if constexpr (std::is_void_v<decltype(Call())>) {
    Call();
    if (T)
      T->close(Id);
  } else {
    auto Result = Call();
    if (T)
      T->close(Id);
    return Result;
  }
}

/// Peak resident set size of this process (VmHWM) in MiB; 0 if unknown.
double peakRssMb();

/// 64-bit FNV-1a.
uint64_t fnv1a(const std::string &Text, uint64_t H = 0xcbf29ce484222325ULL);

/// "%a" rendering: an exact, bit-preserving text form of a double.
std::string hexFloat(double V);

// Workload entry points. Each fills \p R and returns false only when the
// run could not be carried out at all (bad configuration, I/O).
bool runSuiteProfile(const Options &O, Report &R);
bool runStaticLint(const Options &O, Report &R);
/// The fleet layers (aggregate, report, support's Http) on \p Uploads, for a
/// traced run: a fresh storeless service behind http::Server, every upload
/// pushed over HTTP with its idempotency key (every 4th ingest a re-push that
/// must deduplicate), four views after each ingest, with the fleet output
/// checks. Fills the aggregate.*, report.* and support.* per-layer metrics.
bool runFleetLayers(std::vector<kremlin::DictionaryCompressor> Uploads,
                    uint64_t Seed, Tracer &T, Report &R);
/// Writes suite-profile's golden file (every variant) to \p Path.
bool pinSuiteProfile(const std::string &Path);

} // namespace kbench

#endif // KREMLIN_PERFBENCH_COMMON_H

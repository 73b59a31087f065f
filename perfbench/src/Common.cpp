//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

namespace kbench {

uint64_t traceNowUs() {
  static const Clock::time_point Epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Epoch)
          .count());
}

std::vector<double> Samples::sorted() const {
  std::vector<double> S = Values;
  std::sort(S.begin(), S.end());
  return S;
}

double Samples::median() const {
  if (Values.empty())
    return 0.0;
  std::vector<double> S = sorted();
  size_t N = S.size();
  return N % 2 ? S[N / 2] : (S[N / 2 - 1] + S[N / 2]) / 2.0;
}

double Samples::tail() const {
  if (Values.empty())
    return 0.0;
  std::vector<double> S = sorted();
  return S.size() < 11 ? S.back() : S[S.size() - 11];
}

double Samples::tailPercentile() const {
  if (Values.size() < 11)
    return 100.0;
  double N = static_cast<double>(Values.size());
  return 100.0 * (N - 10.0) / N;
}

PassBudget::PassBudget(const Options &O, double NominalPassS,
                       unsigned SetupReps)
    : Trace(O.Trace), Seconds(O.Seconds),
      Target(std::max(1u, static_cast<unsigned>(
                              std::lround(O.Seconds / NominalPassS)))),
      SetupReps(std::min(SetupReps, Target)), Start(Clock::now()) {}

bool PassBudget::more(unsigned Done) const {
  if (Done == 0)
    return true;
  if (Trace)
    return elapsedS() < Seconds;
  return Done < Target && elapsedS() < CapFactor * Seconds;
}

bool PassBudget::setupDue(unsigned Pass) const {
  if (Pass == 0)
    return true;
  // Untraced, rep r runs before pass ceil(r * Target / SetupReps).
  return !Trace && Pass < Target &&
         (Pass * SetupReps) / Target != ((Pass - 1) * SetupReps) / Target;
}

void Report::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void Report::line(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Lines.emplace_back(Buf);
}

void Report::latencyLine(const std::string &Name, const Samples &S) {
  line("%s.p50 = %.4f ms (n=%zu)", Name.c_str(), S.median(), S.size());
  if (S.size() < 11)
    line("%s.tail = %.4f ms (the maximum: n=%zu, fewer than 11 samples)",
         Name.c_str(), S.tail(), S.size());
  else
    line("%s.tail = %.4f ms (p%.1f, n=%zu, 10 samples beyond)", Name.c_str(),
         S.tail(), S.tailPercentile(), S.size());
}

void Report::setupLine(const Samples &Paced, const Samples &Raw) {
  EndToEnd["setup_s"] = Paced.median();
  auto Each = [](const Samples &S) {
    std::string Out;
    for (double V : S.values()) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), " %.4f", V);
      Out += Buf;
    }
    return Out;
  };
  line("setup_s = %.4f s (median of %zu paced set-ups:%s; raw:%s)",
       Paced.median(), Paced.size(), Each(Paced).c_str(), Each(Raw).c_str());
}

void Report::pacedPassLine(const Samples &PacedPass, const Pacer &P) {
  EndToEnd["pass_ms.paced"] = PacedPass.median();
  line("pass_ms.paced = %.4f ms (median of %zu passes, each scaled by "
       "%.1f ms / the pace kernel's time around it; kernel p50 %.3f ms, "
       "n=%zu)",
       PacedPass.median(), PacedPass.size(), Pacer::NominalMs,
       P.kernelTimes().median(), P.kernelTimes().size());
}

double Pacer::kernelMs() {
  // Independent integer chains, a 256 KiB table and a branch taken a
  // quarter of the time at random: busy like an interpreter, and slowed by
  // the same neighbours (measured against suite-profile's passes).
  static std::vector<uint32_t> Table(1 << 16);
  static volatile uint64_t Sink;
  Clock::time_point T0 = Clock::now();
  uint64_t A = 1, B = 2, C = 3, D = 4, Acc = 0;
  for (unsigned I = 0; I < 3000000; ++I) {
    A = A * 6364136223846793005ULL + 1;
    B = B * 2862933555777941757ULL + 3;
    C ^= C << 13;
    C ^= C >> 7;
    C ^= C << 17;
    D += A ^ (B >> 7);
    uint32_t &T = Table[(A >> 48) & 0xffff];
    if ((B >> 62) == 1)
      T += static_cast<uint32_t>(C);
    else
      Acc += T;
  }
  Sink = Acc + C + D;
  double Ms = msBetween(T0, Clock::now());
  Times.add(Ms);
  return Ms;
}

double Pacer::scale(double T) {
  double Before = Last;
  mark();
  return T * 2.0 * NominalMs / (Before + Last);
}

int64_t Tracer::open(std::string Name, std::string Layer, std::string Input,
                     int64_t Parent) {
  return record(std::move(Name), std::move(Layer), std::move(Input),
                traceNowUs(), 0, Parent);
}

void Tracer::close(int64_t Id) {
  uint64_t Now = traceNowUs();
  std::lock_guard<std::mutex> Lock(Mutex);
  SpanRecord &S = Spans[static_cast<size_t>(Id)];
  S.DurUs = Now - S.StartUs;
}

int64_t Tracer::record(std::string Name, std::string Layer, std::string Input,
                       uint64_t StartUs, uint64_t DurUs, int64_t Parent) {
  static std::atomic<uint32_t> NextTid{1};
  thread_local uint32_t Tid = NextTid.fetch_add(1);
  SpanRecord S;
  S.Name = std::move(Name);
  S.Layer = std::move(Layer);
  S.Input = std::move(Input);
  S.StartUs = StartUs;
  S.DurUs = DurUs;
  S.Parent = Parent;
  S.Tid = Tid;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
  return static_cast<int64_t>(Spans.size() - 1);
}

std::vector<uint64_t> Tracer::selfTimesUs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<uint64_t> Self(Spans.size());
  std::vector<uint64_t> Covered(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Covered[static_cast<size_t>(S.Parent)] += S.DurUs;
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].DurUs > Covered[I] ? Spans[I].DurUs - Covered[I] : 0;
  return Self;
}

std::map<std::string, double> Tracer::selfMsByName(size_t Begin,
                                                   size_t End) const {
  std::vector<uint64_t> Self = selfTimesUs();
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, double> Out;
  for (size_t I = Begin; I < End && I < Spans.size(); ++I)
    Out[Spans[I].Name] += static_cast<double>(Self[I]) / 1000.0;
  return Out;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::vector<uint64_t> Self = selfTimesUs();
  std::vector<SpanRecord> All = spans();
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t I = 0; I < All.size(); ++I) {
    const SpanRecord &S = All[I];
    kremlin::JsonValue E = kremlin::JsonValue::makeObject();
    E.set("name", S.Name);
    E.set("cat", S.Layer);
    E.set("ph", "X");
    E.set("ts", S.StartUs);
    E.set("dur", S.DurUs);
    E.set("pid", 1u);
    E.set("tid", S.Tid);
    kremlin::JsonValue Args = kremlin::JsonValue::makeObject();
    Args.set("id", static_cast<uint64_t>(I));
    if (S.Parent >= 0)
      Args.set("parent", static_cast<uint64_t>(S.Parent));
    if (!S.Input.empty())
      Args.set("input", S.Input);
    Args.set("self_us", Self[I]);
    E.set("args", std::move(Args));
    Out << E.serialize() << (I + 1 < All.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

uint64_t fnv1a(const std::string &Text, uint64_t H) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string hexFloat(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

} // namespace kbench

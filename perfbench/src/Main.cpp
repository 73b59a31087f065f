//===- perfbench/src/Main.cpp - kbench, the repository benchmark ---------===//
//
// Usage:
//   kbench --workload <suite-profile|static-lint> --seed <n> --seconds <s>
//          --trace <0|1> [--trace-out <path>] [--golden <path>]
//   kbench --pin-suite <path>     regenerate suite-profile's golden file
//
// Prints a human-readable report (conditions, the workload's metrics under
// their workload-specific names, failures), then one JSON line
// {"correct", "attempted", "failed", "metrics": {name: value}}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
// of the traced run. perfbench/run.py attaches the units from
// BENCHMARK.json.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/KremlinDriver.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sched.h>
#include <string>
#include <thread>

using namespace kbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool Sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(memory_sanitizer)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif
#else
constexpr bool Sanitized = false;
#endif

#ifdef NDEBUG
constexpr bool Optimized = true;
#else
constexpr bool Optimized = false;
#endif

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  if (V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

unsigned affinityCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  return static_cast<unsigned>(CPU_COUNT(&Set));
}

int usage() {
  std::fprintf(stderr,
               "usage: kbench --workload <suite-profile|static-lint> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>] [--golden <path>]\n"
               "       kbench --pin-suite <path>\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveTrace = false;
  std::string PinPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Value;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End || Value.empty())
        return usage();
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(O.Seconds > 0))
        return usage();
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return usage();
      O.Trace = Value == "1";
      HaveTrace = true;
    } else if (Arg == "--trace-out") {
      O.TraceOut = Value;
    } else if (Arg == "--golden") {
      O.Golden = Value;
    } else if (Arg == "--pin-suite") {
      PinPath = Value;
    } else {
      return usage();
    }
  }
  if (!PinPath.empty())
    return pinSuiteProfile(PinPath) ? 0 : 1;
  if (O.Workload.empty() || !HaveTrace)
    return usage();

  kremlin::DriverOptions Defaults;
  std::printf("# conditions: nproc=%u affinity_cpus=%u compiler=\"%s\" "
              "build_type=%s flags=\"%s\" ndebug=%d sanitizer=%d "
              "verify_ir=%d\n",
              std::thread::hardware_concurrency(), affinityCpus(),
              KBENCH_COMPILER, KBENCH_BUILD_TYPE, KBENCH_CXX_FLAGS,
              Optimized ? 1 : 0, Sanitized ? 1 : 0,
              Defaults.VerifyIR ? 1 : 0);
  if (!Optimized || Sanitized) {
    std::fprintf(stderr, "kbench: refusing to report from a Debug or "
                         "sanitizer build\n");
    return 1;
  }

  Report R;
  bool Ran = false;
  if (O.Workload == "suite-profile")
    Ran = runSuiteProfile(O, R);
  else if (O.Workload == "static-lint")
    Ran = runStaticLint(O, R);
  else
    return usage();
  if (!Ran)
    return 1;
  const std::map<std::string, double> &Metrics =
      O.Trace ? R.PerLayer : R.EndToEnd;

  std::printf("# workload %s, seed %" PRIu64 ", %.0f s, trace %d\n",
              O.Workload.c_str(), O.Seed, O.Seconds, O.Trace ? 1 : 0);
  for (const std::string &L : R.Lines)
    std::printf("  %s\n", L.c_str());
  std::printf("  peak_rss_mb = %.1f MiB (VmHWM)\n", peakRssMb());
  std::printf("  fail_ratio = %.6f ratio (%" PRIu64 " failed of %" PRIu64
              " attempted)\n",
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 0.0,
              R.Failed, R.Attempted);
  for (const std::string &F : R.Failures)
    std::printf("  FAILED: %s\n", F.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, V] : Metrics) {
    Json += First ? "" : ", ";
    First = false;
    Json += "\"" + Name + "\": " + jsonNumber(V);
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}

//===- driver/AggregateTool.cpp - merge/diff/serve/push/top ---------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The fleet-aggregation subcommands: merge and diff saved profiles, serve
// them over HTTP, push profiles to a server, and watch its /metrics.
//
//===----------------------------------------------------------------------===//

#include "aggregate/ProfileMerge.h"
#include "aggregate/ProfileService.h"
#include "aggregate/ProfileStore.h"
#include "aggregate/PushClient.h"
#include "compress/TraceIO.h"
#include "driver/BenchHarness.h"
#include "driver/Cli.h"
#include "report/ProfileExport.h"
#include "support/Http.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include <csignal>
#include <pthread.h>

using namespace kremlin;
using namespace kremlin::aggregate;
using namespace kremlin::cli;
namespace tel = kremlin::telemetry;

int cli::mergeMain(const Args &A) {
  std::vector<std::string> Inputs;
  std::string OutPath, SpeedscopePath, StoreDir, Name = "merged";
  TraceReadLimits Limits;
  Command C{
      "usage: kremlin merge <a.prof> <b.prof>... [options]",
      {{"--out", "<path>", "write the merged kremlin-trace here", &OutPath},
       {"--speedscope", "<path>",
        "also export the merged profile as speedscope JSON (self-validated)",
        &SpeedscopePath},
       {"--store", "<dir>", "record the merge into a profile store",
        &StoreDir},
       {"--name", "<name>", "store entry name (default 'merged')", &Name},
       maxProfileMb(Limits.MaxBytes)},
      "Merging unions the compressed dictionaries (child characters\n"
      "remapped through the content-addressed index) and concatenates the\n"
      "root tables -- exactly the profile of the concatenated runs, so\n"
      "work sums and self-parallelism recombines work-weighted.\n",
      collect(Inputs)};
  if (std::optional<int> Exit = parse(C, A, "merge"))
    return *Exit;
  if (Inputs.empty()) {
    printUsage(C);
    return 1;
  }

  DictionaryCompressor Merged;
  std::string Sources;
  for (const std::string &Path : Inputs) {
    TraceMeta Meta;
    Expected<DictionaryCompressor> In = readTraceFile(Path, &Meta, Limits);
    if (!In.ok()) {
      tel::logError("merge", In.status().toString());
      return 1;
    }
    mergeInto(Merged, In.value());
    std::string Label = Meta.Source.empty() ? Path : Meta.Source;
    Sources += (Sources.empty() ? "" : "+") + Label;
  }

  std::printf("merged %zu profile(s): %zu alphabet entries, %llu dynamic "
              "regions, program work %llu\n",
              Inputs.size(), Merged.alphabet().size(),
              static_cast<unsigned long long>(Merged.numDynamicRegions()),
              static_cast<unsigned long long>(programWork(Merged)));

  TraceMeta OutMeta;
  OutMeta.Source = Sources;
  if (!OutPath.empty()) {
    if (Status St = writeTraceFile(Merged, OutPath, OutMeta); !St.ok()) {
      tel::logError("merge", St.toString());
      return 1;
    }
    std::printf("merged trace written to %s\n", OutPath.c_str());
  }

  if (!StoreDir.empty()) {
    Expected<ProfileStore> Store = ProfileStore::open(StoreDir);
    if (!Store.ok()) {
      tel::logError("merge", Store.status().toString());
      return 1;
    }
    if (Status St = Store.value().add(Name, Merged, OutMeta); !St.ok()) {
      tel::logError("merge", St.toString());
      return 1;
    }
    std::printf("stored as '%s' in %s (%zu entries)\n", Name.c_str(),
                StoreDir.c_str(), Store.value().entries().size());
  }

  if (!SpeedscopePath.empty()) {
    Module M = syntheticModule(Merged);
    ParallelismProfile P(M, Merged);
    std::string Output =
        report::renderView(P, Merged, "speedscope", "merge").takeValue();
    // Same contract as `kremlin report`: JSON artifacts self-validate
    // before anything is written; an invalid document is exit 2.
    if (Status St = report::checkViewJson("speedscope", Output); !St.ok()) {
      tel::logError("merge", St.toString());
      return 2;
    }
    if (!writeStringToFile(SpeedscopePath, Output)) {
      tel::logf(tel::LogLevel::Error, "merge", "cannot write '%s'",
                SpeedscopePath.c_str());
      return 1;
    }
    std::printf("speedscope profile written to %s\n", SpeedscopePath.c_str());
  }
  return 0;
}

int cli::diffMain(const Args &A) {
  std::vector<std::string> Inputs;
  TraceReadLimits Limits;
  Command C{"usage: kremlin diff <a.prof> <b.prof> [options]",
            {maxProfileMb(Limits.MaxBytes)},
            "Prints per-region work/SP/coverage deltas, `stats --diff`\n"
            "style ('added'/'removed' for one-sided regions).\n",
            collect(Inputs)};
  if (std::optional<int> Exit = parse(C, A, "diff"))
    return *Exit;
  if (Inputs.size() != 2) {
    printUsage(C);
    return 1;
  }
  DictionaryCompressor Dicts[2];
  for (int Side = 0; Side < 2; ++Side) {
    Expected<DictionaryCompressor> In =
        readTraceFile(Inputs[Side], nullptr, Limits);
    if (!In.ok()) {
      tel::logError("diff", In.status().toString());
      return 1;
    }
    Dicts[Side] = In.takeValue();
  }
  std::printf("a: %s\nb: %s\n", Inputs[0].c_str(), Inputs[1].c_str());
  std::fputs(renderProfileDiff(Dicts[0], Dicts[1]).c_str(), stdout);
  return 0;
}

int cli::serveMain(const Args &A) {
  http::ServerOptions ServerOpts;
  ServiceOptions SvcOpts;
  std::vector<std::string> LoadPaths;
  TelemetryOut Tel;
  Command C{
      "usage: kremlin serve [options]",
      {{"--port", "<n>",
        "TCP port on 127.0.0.1 (default 0 = pick; the chosen port is "
        "printed on startup)",
        &ServerOpts.Port},
       {"--threads", "<n>", "handler worker threads (default 4)",
        &ServerOpts.Threads},
       {"--store", "<dir>",
        "persistent profile store: seeds the merge on startup, named "
        "ingests are recorded",
        &SvcOpts.StoreDir},
       {"--load", "<p,q,...>", "profiles to ingest before serving",
        &LoadPaths},
       maxProfileMb(SvcOpts.MaxIngestBytes),
       {"--rows", "<n>", "plan-view row cap (default 25)", &SvcOpts.PlanRows},
       {"--max-queue", "<n>",
        "bound on pending requests; beyond it the server sheds with 503 + "
        "Retry-After (default 0 = unbounded)",
        &SvcOpts.MaxQueue},
       {"--access-log", "<path>",
        "JSON-lines access log: one line per request (trace id, status, "
        "latency, dedup outcome) through a bounded buffered sink",
        &SvcOpts.AccessLogPath},
       Tel.traceOut()},
      "Request spans carry the trace ids the pushing clients stamp their\n"
      "attempts with.\n"
      "endpoints: POST /ingest (kremlin-trace body),\n"
      "           GET /profile?format=speedscope|tree|plan|collapsed|"
      "timeline,\n"
      "           GET /metrics[?format=table|json|prometheus],\n"
      "           GET /healthz (JSON status)\n"
      "Stop with SIGINT/SIGTERM; in-flight requests drain first.\n"};
  if (std::optional<int> Exit = parse(C, A, "serve"))
    return *Exit;
  if (SvcOpts.MaxIngestBytes)
    ServerOpts.MaxBodyBytes = SvcOpts.MaxIngestBytes;
  if (!Tel.start("serve"))
    return 1;

  Expected<std::unique_ptr<ProfileService>> Service =
      ProfileService::create(SvcOpts);
  if (!Service.ok()) {
    tel::logError("serve", Service.status().toString());
    return 1;
  }
  ProfileService &Svc = *Service.value();
  if (const StoreRecovery *Rec = Svc.storeRecovery(); Rec && Rec->dirty()) {
    // Operators (and the crash-recovery drill) read this line to see
    // exactly which entries survived and which were quarantined.
    std::printf("kremlin serve: %s\n", Rec->summary().c_str());
    std::fflush(stdout);
  }

  for (const std::string &Path : LoadPaths) {
    TraceMeta Meta;
    Expected<DictionaryCompressor> In = readTraceFile(
        Path, &Meta, TraceReadLimits{SvcOpts.MaxIngestBytes});
    if (!In.ok()) {
      tel::logError("serve", In.status().toString());
      return 1;
    }
    if (Status St = Svc.ingest(In.value(), "", Meta.Source); !St.ok()) {
      tel::logError("serve", St.toString());
      return 1;
    }
  }

  // Block SIGINT/SIGTERM before spawning the server threads (they inherit
  // the mask), then sigwait on the main thread: the only place the stop
  // signal can land is the one thread prepared to handle it, and shutdown
  // runs in normal (non-handler) context where joining threads is legal.
  sigset_t StopSet;
  sigemptyset(&StopSet);
  sigaddset(&StopSet, SIGINT);
  sigaddset(&StopSet, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &StopSet, nullptr);

  // Backpressure and deadline hooks: the service owns the policy (queue
  // bound) and the accounting (shed/timeout counters); the server owns
  // the mechanics (accept-thread rejection, SO_RCVTIMEO 408s).
  ServerOpts.Admit = [&Svc] { return Svc.admit(); };
  ServerOpts.Release = [&Svc] { Svc.release(); };
  ServerOpts.RejectResponse = ProfileService::shedResponse();
  ServerOpts.OnReadTimeout = [] { ProfileService::noteTimeout(); };

  Expected<std::unique_ptr<http::Server>> Server = http::Server::start(
      ServerOpts, [&Svc](const http::Request &Req) {
        return Svc.handle(Req);
      });
  if (!Server.ok()) {
    tel::logError("serve", Server.status().toString());
    return 1;
  }
  std::printf("kremlin serve: listening on 127.0.0.1:%u (%llu profile(s) "
              "loaded)\n",
              Server.value()->port(),
              static_cast<unsigned long long>(Svc.ingestCount()));
  std::fflush(stdout); // Launchers parse the port from this line.

  int Sig = 0;
  sigwait(&StopSet, &Sig);
  std::printf("kremlin serve: received %s, draining\n",
              Sig == SIGINT ? "SIGINT" : "SIGTERM");
  Server.value()->stop();
  std::printf("kremlin serve: %llu request(s), %llu ingest(s)\n",
              static_cast<unsigned long long>(
                  tel::Registry::global().counter("serve.requests").value()),
              static_cast<unsigned long long>(Svc.ingestCount()));
  return Tel.finish("serve", "kremlin serve: ") ? 0 : 1;
}

int cli::pushMain(const Args &A) {
  std::vector<std::string> Inputs;
  std::string Url;
  PushOptions Opts;
  TelemetryOut Tel;
  Command C{
      "usage: kremlin push <a.prof>... --url=http://<ipv4>[:port]",
      {{"--url", "<url>", "the `kremlin serve` endpoint (required)", &Url},
       {"--retries", "<n>",
        "retries per profile after the first attempt (default 5)",
        &Opts.Retry.MaxRetries},
       {"--timeout-ms", "<n>",
        "per-attempt socket deadline (default 10000; 0 = none)",
        &Opts.TimeoutMs},
       Tel.traceOut()},
      "Uploads each profile to POST /ingest with capped jittered\n"
      "exponential backoff on transient failures (connect errors,\n"
      "408/429/5xx), honoring the server's Retry-After hints. Every\n"
      "upload carries a content-hash Idempotency-Key, so a retried\n"
      "upload whose ack was lost is acknowledged without double-merging.\n"
      "Every attempt carries the push's trace id in a traceparent header.\n",
      collect(Inputs)};
  if (std::optional<int> Exit = parse(C, A, "push"))
    return *Exit;
  if (Inputs.empty() || Url.empty()) {
    printUsage(C);
    return 1;
  }
  Expected<PushEndpoint> Endpoint = parsePushUrl(Url);
  if (!Endpoint.ok()) {
    tel::logError("push", Endpoint.status().toString());
    return 1;
  }
  Opts.Endpoint = Endpoint.takeValue();
  if (!Tel.start("push"))
    return 1;

  int Exit = 0;
  for (const std::string &Path : Inputs) {
    Expected<PushOutcome> Out = pushProfileFile(Path, Opts);
    if (!Out.ok()) {
      tel::logError("push", Out.status().toString());
      Exit = 1;
      break;
    }
    std::printf("pushed %s as '%s' in %u attempt(s)%s (server total: %llu "
                "ingest(s), trace %s)\n",
                Path.c_str(), Out.value().Name.c_str(),
                Out.value().Attempts,
                Out.value().Deduplicated ? " [deduplicated]" : "",
                static_cast<unsigned long long>(Out.value().Ingested),
                Out.value().TraceId.c_str());
  }
  return Tel.finish("push", "push ") ? Exit : 1;
}

namespace {

/// One /metrics?format=json poll flattened into name -> value (JSON null,
/// the empty-histogram quantile encoding, becomes NaN).
Expected<MetricMap> scrapeMetrics(const PushEndpoint &Endpoint) {
  Expected<http::ClientResponse> Resp =
      http::request(Endpoint.Host, Endpoint.Port, "GET",
                    "/metrics?format=json", "", "", {}, 5000);
  if (!Resp.ok())
    return Resp.status();
  if (Resp.value().Code != 200)
    return Status::error(ErrorCode::ExecutionError,
                         formatString("GET /metrics: HTTP %d",
                                      Resp.value().Code))
        .withStage("top");
  MetricMap Out;
  std::string Error;
  if (!parseMetricsJson(Resp.value().Body, Out, &Error))
    return Status::error(ErrorCode::DecodeError,
                         "malformed /metrics JSON: " + Error)
        .withStage("top");
  return Out;
}

/// Renders one `kremlin top` frame: headline gauges plus a per-endpoint
/// latency table with rates derived from the previous poll.
std::string renderTopFrame(const MetricMap &Cur, const MetricMap &Prev,
                           double DtSec) {
  auto Get = [&Cur](const std::string &Name) {
    auto It = Cur.find(Name);
    return It == Cur.end() ? 0.0 : It->second;
  };
  auto Rate = [&Prev, DtSec](const std::string &Name, double CurValue) {
    auto It = Prev.find(Name);
    if (It == Prev.end() || DtSec <= 0)
      return std::numeric_limits<double>::quiet_NaN();
    return (CurValue - It->second) / DtSec;
  };
  auto FmtMs = [](double Us) {
    return std::isnan(Us) ? std::string("n/a")
                          : formatString("%.2f", Us / 1000.0);
  };

  double Requests = Get("serve.requests");
  double ReqRate = Rate("serve.requests", Requests);
  std::string Out = formatString(
      "kremlin top: %llu request(s), %llu ingest(s), queue depth %.0f, "
      "uptime %.1fs\n",
      static_cast<unsigned long long>(Requests),
      static_cast<unsigned long long>(Get("serve.ingests")),
      Get("serve.queue_depth"), Get("serve.uptime_seconds"));
  Out += std::isnan(ReqRate)
             ? "rate: n/a (first poll)\n"
             : formatString("rate: %.1f req/s, shed %.0f, errors %.0f, "
                            "timeouts %.0f\n",
                            ReqRate, Get("serve.shed"), Get("serve.errors"),
                            Get("serve.timeouts"));
  Out += formatString("queue wait: p50 %s ms, p99 %s ms\n",
                      FmtMs(Get("serve.queue_wait_us.p50")).c_str(),
                      FmtMs(Get("serve.queue_wait_us.p99")).c_str());

  TablePrinter Table;
  Table.setHeader({"endpoint", "count", "rate/s", "p50 ms", "p99 ms"});
  const std::string Prefix = "serve.latency.";
  for (const auto &[Name, Value] : Cur) {
    if (Name.rfind(Prefix, 0) != 0)
      continue;
    const std::string Suffix = ".count";
    if (Name.size() < Suffix.size() ||
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix))
      continue;
    std::string Base = Name.substr(0, Name.size() - Suffix.size());
    std::string Label = Base.substr(Prefix.size());
    double CountRate = Rate(Name, Value);
    Table.addRow({Label, formatString("%.0f", Value),
                  std::isnan(CountRate) ? "n/a"
                                        : formatString("%.1f", CountRate),
                  FmtMs(Get(Base + ".p50")), FmtMs(Get(Base + ".p99"))});
  }
  if (Table.numRows() == 0)
    return Out + "(no per-endpoint latency samples yet)\n";
  return Out + Table.render();
}

} // namespace

int cli::topMain(const Args &A) {
  std::string Url;
  unsigned IntervalMs = 2000;
  bool Once = false;
  Command C{"usage: kremlin top --url=http://<ipv4>[:port] [options]",
            {{"--url", "<url>", "the `kremlin serve` endpoint (required)",
              &Url},
             {"--interval-ms", "<n>", "poll interval (default 2000)",
              &IntervalMs},
             {"--once", "", "print one snapshot and exit (CI-friendly)",
              &Once}},
            "Polls GET /metrics?format=json and renders request rates, queue\n"
            "depth, and per-endpoint latency (p50/p99) deltas between polls.\n"};
  if (std::optional<int> Exit = parse(C, A, "top"))
    return *Exit;
  if (Url.empty()) {
    printUsage(C);
    return 1;
  }
  Expected<PushEndpoint> Endpoint = parsePushUrl(Url);
  if (!Endpoint.ok()) {
    tel::logError("top", Endpoint.status().toString());
    return 1;
  }

  MetricMap Prev;
  uint64_t PrevPollUs = 0;
  for (;;) {
    Expected<MetricMap> Cur = scrapeMetrics(Endpoint.value());
    if (!Cur.ok()) {
      tel::logError("top", Cur.status().toString());
      return 1;
    }
    uint64_t PollUs = tel::nowUs();
    double DtSec =
        PrevPollUs ? static_cast<double>(PollUs - PrevPollUs) / 1e6 : 0.0;
    if (!Once)
      std::printf("\033[2J\033[H"); // Clear screen + home, live-view style.
    std::fputs(renderTopFrame(Cur.value(), Prev, DtSec).c_str(), stdout);
    std::fflush(stdout);
    if (Once)
      return 0;
    Prev = std::move(Cur.value());
    PrevPollUs = PollUs;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        IntervalMs == 0 ? 100 : IntervalMs));
  }
}

//===- perfbench/src/FleetLayers.cpp - Fleet layers of the traced run ----===//
//
// An in-process `kremlin serve`: aggregate::ProfileService behind
// http::Server with ServerThreads workers, driven by an open-loop
// generator. Op k is due at k / LayerRate seconds whatever the server does;
// two sender threads take alternate ops. The mix is one POST /ingest to
// four GET /profile views (speedscope, tree, plan, collapsed, in seeded
// order). Exercises aggregate, report and support's Http with writes beside
// reads.
//
// Each fresh upload is a distinct writeTrace body (its `source` line names
// the push), sent with its pushIdempotencyKey like `kremlin push`; every
// RepushEvery-th ingest is a byte-identical re-push of the previous one and
// must deduplicate. The service runs storeless, so no ingest waits on fsync.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "aggregate/ProfileMerge.h"
#include "aggregate/ProfileService.h"
#include "aggregate/PushClient.h"
#include "compress/TraceIO.h"
#include "driver/KremlinDriver.h"
#include "planner/Personality.h"
#include "report/ProfileExport.h"
#include "support/Json.h"
#include "support/Prng.h"
#include "support/Telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <thread>

using namespace kremlin;

namespace kbench {
namespace {

constexpr double LayerRate = 100.0; ///< Offered load, requests per second.
constexpr unsigned Senders = 2;
constexpr unsigned ServerThreads = 2;
constexpr unsigned IngestEvery = 5; ///< 1 ingest : 4 views.
constexpr unsigned RepushEvery = 4; ///< Every 4th ingest is a re-push.
const char *const ViewFormats[] = {"speedscope", "tree", "plan", "collapsed"};

struct Op {
  bool Ingest = false;
  bool Repush = false;
  std::string Target; ///< Request target, e.g. "/profile?format=tree".
  std::string Body;
  std::string Key;
  unsigned Pool = 0; ///< Fresh ingests: which upload the body holds.
};

struct OpResult {
  int Code = 0;
  bool Deduplicated = false;
  uint64_t SendUs = 0; ///< Trace clock at send start.
  uint64_t DoneUs = 0;
  double LatenessMs = 0; ///< Send start minus due time.
  std::string Error;
};

/// What the wrapped handler saw for one op.
struct HandlerSlot {
  uint64_t StartUs = 0;
  uint64_t DurUs = 0;
  uint64_t QueueWaitUs = 0;
  bool Seen = false;
};

struct Fleet {
  std::vector<DictionaryCompressor> Pool;
  std::vector<uint64_t> PoolWork;
  std::vector<Op> Ops;
  std::unique_ptr<aggregate::ProfileService> Svc;
  std::unique_ptr<http::Server> Server;
  std::mutex SlotMutex;
  std::vector<HandlerSlot> Slots; ///< Guarded by SlotMutex.

  Fleet() = default;
  ~Fleet() {
    if (Server)
      Server->stop();
  }
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;
};

uint64_t counterValue(const char *Name) {
  return telemetry::Registry::global().counter(Name).value();
}

/// Builds the op schedule: \p NumOps ops in groups of one ingest and four
/// views, cycling through F.Pool for fresh uploads named \p Tag-<n>.
void buildSchedule(Fleet &F, Prng &R, const std::string &Tag, size_t NumOps) {
  F.Ops.assign(NumOps, Op());
  unsigned Ingests = 0, Fresh = 0;
  std::vector<unsigned> Formats = {0, 1, 2, 3};
  for (size_t K = 0; K < NumOps; ++K) {
    Op &Cur = F.Ops[K];
    unsigned InGroup = static_cast<unsigned>(K % IngestEvery);
    if (InGroup == 0) {
      // Shuffle the next four views' formats.
      for (size_t I = Formats.size(); I > 1; --I)
        std::swap(Formats[I - 1], Formats[R.nextBelow(I)]);
      Cur.Ingest = true;
      if (Ingests % RepushEvery == RepushEvery - 1) {
        const Op &Prev = F.Ops[K - IngestEvery];
        Cur.Repush = true;
        Cur.Target = Prev.Target;
        Cur.Body = Prev.Body;
        Cur.Key = Prev.Key;
        Cur.Pool = Prev.Pool;
      } else {
        Cur.Pool = static_cast<unsigned>(Fresh % F.Pool.size());
        TraceMeta Meta;
        Meta.Source = Tag + "-" + std::to_string(Fresh);
        Cur.Body = writeTrace(F.Pool[Cur.Pool], Meta);
        Cur.Key = aggregate::pushIdempotencyKey(Cur.Body);
        Cur.Target = "/ingest?name=" + Meta.Source;
        ++Fresh;
      }
      ++Ingests;
    } else {
      Cur.Target = std::string("/profile?format=") +
                   ViewFormats[Formats[InGroup - 1]];
    }
  }
}

/// Starts a storeless service behind the server, its handler wrapped to
/// record each op's handler time and queue wait.
bool startService(Fleet &F) {
  for (const DictionaryCompressor &D : F.Pool)
    F.PoolWork.push_back(aggregate::programWork(D));
  Expected<std::unique_ptr<aggregate::ProfileService>> Svc =
      aggregate::ProfileService::create(aggregate::ServiceOptions());
  if (!Svc.ok()) {
    std::fprintf(stderr, "kbench: %s\n", Svc.status().toString().c_str());
    return false;
  }
  F.Svc = Svc.takeValue();
  F.Slots.assign(F.Ops.size(), HandlerSlot());

  aggregate::ProfileService *S = F.Svc.get();
  http::ServerOptions SO;
  SO.Threads = ServerThreads;
  SO.Admit = [S] { return S->admit(); };
  SO.Release = [S] { S->release(); };
  SO.RejectResponse = aggregate::ProfileService::shedResponse();
  SO.OnReadTimeout = [] { aggregate::ProfileService::noteTimeout(); };
  Fleet *FP = &F;
  http::Server::Handler H = [S, FP](const http::Request &Req) {
    uint64_t Start = traceNowUs();
    http::Response Resp = S->handle(Req);
    uint64_t Dur = traceNowUs() - Start;
    if (const std::string *Id = Req.header("x-kbench-op")) {
      size_t K = std::strtoull(Id->c_str(), nullptr, 10);
      std::lock_guard<std::mutex> Lock(FP->SlotMutex);
      if (K < FP->Slots.size())
        FP->Slots[K] = {Start, Dur, Req.QueueWaitUs, true};
    }
    return Resp;
  };
  Expected<std::unique_ptr<http::Server>> Server =
      http::Server::start(SO, std::move(H));
  if (!Server.ok()) {
    std::fprintf(stderr, "kbench: %s\n", Server.status().toString().c_str());
    return false;
  }
  F.Server = Server.takeValue();

  // Warm the connect/accept path before anything is timed.
  for (int I = 0; I < 4; ++I) {
    Expected<http::ClientResponse> Resp = http::request(
        "127.0.0.1", F.Server->port(), "GET", "/healthz", "", "", {}, 5000);
    if (!Resp.ok() || Resp.value().Code != 200) {
      std::fprintf(stderr, "kbench: server did not answer /healthz\n");
      return false;
    }
  }
  return true;
}

/// Sends every op on its due time (op k at k / LayerRate seconds) from
/// Senders threads; returns per-op results.
std::vector<OpResult> drive(Fleet &F) {
  std::vector<OpResult> Results(F.Ops.size());
  const uint16_t Port = F.Server->port();
  const Clock::time_point Start =
      Clock::now() + std::chrono::milliseconds(20);
  auto Sender = [&](unsigned First) {
    for (size_t K = First; K < F.Ops.size(); K += Senders) {
      const Op &Cur = F.Ops[K];
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(K / LayerRate));
      std::this_thread::sleep_until(Due);
      OpResult &Res = Results[K];
      Res.SendUs = traceNowUs();
      Res.LatenessMs = msBetween(Due, Clock::now());
      std::vector<std::pair<std::string, std::string>> Headers = {
          {"X-Kbench-Op", std::to_string(K)}};
      if (!Cur.Key.empty())
        Headers.emplace_back("Idempotency-Key", Cur.Key);
      Expected<http::ClientResponse> Resp = http::request(
          "127.0.0.1", Port, Cur.Ingest ? "POST" : "GET", Cur.Target,
          Cur.Body, Cur.Ingest ? "text/plain" : "", Headers, 30000);
      Res.DoneUs = traceNowUs();
      if (!Resp.ok()) {
        Res.Error = Resp.status().toString();
        continue;
      }
      Res.Code = Resp.value().Code;
      JsonValue Ack;
      if (Cur.Ingest && Res.Code == 200) {
        if (!JsonValue::parse(Resp.value().Body, Ack) || !Ack.isObject())
          Res.Error = "malformed ingest reply";
        else if (const JsonValue *D = Ack.get("deduplicated"))
          Res.Deduplicated = D->asBool();
      } else if (Res.Code == 200 && Resp.value().Body.empty()) {
        Res.Error = "empty view";
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Senders; ++I)
    Threads.emplace_back(Sender, I);
  for (std::thread &Th : Threads)
    Th.join();
  return Results;
}

/// Counters of one run, as deltas of the process-wide registry.
struct ServeCounters {
  uint64_t Ingests = 0, Dedups = 0, Hits = 0, Misses = 0;
  static ServeCounters now() {
    return {counterValue("serve.ingests"), counterValue("serve.ingest.dedup"),
            counterValue("serve.cache.hits"),
            counterValue("serve.cache.misses")};
  }
};

/// Everything one run of the schedule produced.
struct SubRun {
  std::vector<OpResult> Results;
  ServeCounters Before, After;
  uint64_t Merges = 0;
};

/// Runs the schedule and checks every output the fleet path promises.
SubRun runAndCheck(Fleet &F, Report &R) {
  SubRun S;
  S.Before = ServeCounters::now();
  S.Results = drive(F);
  S.After = ServeCounters::now();
  S.Merges = F.Svc->ingestCount();

  uint64_t Acked = 0, ClientDedups = 0, ExpectedDedups = 0;
  uint64_t ExpectedWork = 0;
  for (size_t K = 0; K < F.Ops.size(); ++K) {
    const Op &Cur = F.Ops[K];
    const OpResult &Res = S.Results[K];
    ++R.Attempted;
    if (Cur.Ingest) {
      ExpectedDedups += Cur.Repush;
      if (!Cur.Repush)
        ExpectedWork += F.PoolWork[Cur.Pool];
    }
    if (Res.Code != 200 || !Res.Error.empty()) {
      R.fail("op " + std::to_string(K) + " " + Cur.Target + ": HTTP " +
             std::to_string(Res.Code) + " " + Res.Error);
      continue;
    }
    if (Cur.Ingest) {
      ++Acked;
      ClientDedups += Res.Deduplicated;
    }
  }

  ++R.Attempted;
  uint64_t Ingests = S.After.Ingests - S.Before.Ingests;
  uint64_t Dedups = S.After.Dedups - S.Before.Dedups;
  if (Acked != Ingests || Acked != S.Merges + Dedups ||
      Dedups != ClientDedups || Dedups != ExpectedDedups)
    R.fail("ingest accounting: acked " + std::to_string(Acked) +
           ", serve.ingests " + std::to_string(Ingests) + ", merges " +
           std::to_string(S.Merges) + ", dedups " + std::to_string(Dedups) +
           " (client saw " + std::to_string(ClientDedups) + ", expected " +
           std::to_string(ExpectedDedups) + ")");

  // The served profile's total work is the sum over the distinct uploads.
  ++R.Attempted;
  Expected<http::ClientResponse> Final =
      http::request("127.0.0.1", F.Server->port(), "GET",
                    "/profile?format=speedscope", "", "", {}, 30000);
  JsonValue Doc;
  const JsonValue *Profiles = nullptr;
  if (Final.ok() && Final.value().Code == 200 &&
      JsonValue::parse(Final.value().Body, Doc))
    Profiles = Doc.get("profiles");
  double Served = Profiles && Profiles->size()
                      ? Profiles->at(0).getNumber("endValue", -1)
                      : -1;
  if (Served != static_cast<double>(ExpectedWork))
    R.fail("served total work " + std::to_string(Served) + " != " +
           std::to_string(ExpectedWork) + " summed over distinct uploads");

  ++R.Attempted;
  auto C = counterValue;
  uint64_t Lhs = C("serve.requests");
  uint64_t Rhs = C("serve.ingests") + C("serve.cache.hits") +
                 C("serve.cache.misses") + C("serve.healthz") +
                 C("serve.metrics") + C("serve.errors") + C("serve.shed") +
                 C("serve.timeouts");
  if (Lhs != Rhs)
    R.fail("serve.requests equation: " + std::to_string(Lhs) + " != " +
           std::to_string(Rhs));
  return S;
}

/// The aggregate, report and support (Http) layer metrics of one run:
/// per-op client, queue-wait and handler spans, then the merge of every
/// distinct upload in schedule order and the four exporters on the merged
/// profile, called directly.
void fleetLayers(Fleet &F, const SubRun &Run, Tracer &T, Report &R) {
  std::vector<HandlerSlot> Slots;
  {
    std::lock_guard<std::mutex> Lock(F.SlotMutex);
    Slots = F.Slots;
  }
  Samples IngestHandle, ViewHandle, QueueWait, Transport, Lateness;
  for (size_t K = 0; K < F.Ops.size(); ++K) {
    const OpResult &Res = Run.Results[K];
    const HandlerSlot &H = Slots[K];
    Lateness.add(Res.LatenessMs);
    std::string Id = "op" + std::to_string(K);
    int64_t Client = T.record("support.http", "support", Id, Res.SendUs,
                              Res.DoneUs - Res.SendUs);
    if (!H.Seen)
      continue;
    if (H.QueueWaitUs)
      T.record("support.queue_wait", "support", Id, H.StartUs - H.QueueWaitUs,
               H.QueueWaitUs, Client);
    T.record(F.Ops[K].Ingest ? "aggregate.ingest" : "aggregate.view",
             "aggregate", Id, H.StartUs, H.DurUs, Client);
    double HandleMs = static_cast<double>(H.DurUs) / 1000.0;
    (F.Ops[K].Ingest ? IngestHandle : ViewHandle).add(HandleMs);
    QueueWait.add(static_cast<double>(H.QueueWaitUs));
    Transport.add(static_cast<double>(Res.DoneUs - Res.SendUs) / 1000.0 -
                  HandleMs);
  }

  DictionaryCompressor Merged;
  uint64_t M0 = traceNowUs();
  traced(&T, "aggregate.merge", "aggregate", "replica", -1, [&] {
    for (const Op &Cur : F.Ops)
      if (Cur.Ingest && !Cur.Repush)
        aggregate::mergeInto(Merged, F.Pool[Cur.Pool]);
  });
  double MergeMs = static_cast<double>(traceNowUs() - M0) / 1000.0;
  uint64_t R0 = traceNowUs();
  traced(&T, "report.render", "report", "replica", -1, [&] {
    Module M = aggregate::syntheticModule(Merged);
    ParallelismProfile P(M, Merged);
    report::RegionTree Tree = report::buildRegionTree(P);
    std::string Out = report::exportSpeedscope(P, Tree, "fleet");
    Out += report::renderTree(P, Tree);
    Out += printPlan(M, makePersonality("openmp")->plan(P, PlannerOptions()));
    Out += report::exportCollapsed(P, Tree);
    return Out.size();
  });
  double RenderMs = static_cast<double>(traceNowUs() - R0) / 1000.0;

  uint64_t Ingests = Run.After.Ingests - Run.Before.Ingests;
  uint64_t Dedups = Run.After.Dedups - Run.Before.Dedups;
  uint64_t Hits = Run.After.Hits - Run.Before.Hits;
  uint64_t Misses = Run.After.Misses - Run.Before.Misses;
  std::map<std::string, double> &L = R.PerLayer;
  L["aggregate.ingest_handle_ms.p50"] = IngestHandle.median();
  L["aggregate.view_handle_ms.p50"] = ViewHandle.median();
  L["aggregate.cache_hit_ratio"] =
      Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0;
  L["aggregate.merge_ms"] = MergeMs;
  L["aggregate.merged_alphabet"] = static_cast<double>(Merged.alphabet().size());
  L["aggregate.dedup_ratio"] =
      Ingests ? static_cast<double>(Dedups) / Ingests : 0;
  L["report.render_ms"] = RenderMs;
  L["support.http_queue_wait_us.p50"] = QueueWait.median();
  L["support.http_transport_ms.p50"] = Transport.median();
  R.line("fleet layers: %zu ops (1 ingest : 4 views) open loop at %.0f req/s "
         "from %u senders, %u server workers, storeless; cache hits %" PRIu64
         " of %" PRIu64 " views, dedups %" PRIu64 " of %" PRIu64
         " acked ingests; merge and render are direct calls on the %zu "
         "distinct uploads",
         F.Ops.size(), LayerRate, Senders, ServerThreads, Hits, Hits + Misses,
         Dedups, Ingests, static_cast<size_t>(Run.Merges));
  R.line("fleet generator lateness (send time - due time): p50 %.3f ms, "
         "tail %.3f ms (p%.1f, n=%zu)",
         Lateness.median(), Lateness.tail(), Lateness.tailPercentile(),
         Lateness.size());
}

} // namespace

bool runFleetLayers(std::vector<DictionaryCompressor> Uploads, uint64_t Seed,
                    Tracer &T, Report &R) {
  // At least 16 groups, and enough that every upload is pushed fresh once.
  const size_t Groups = std::max<size_t>(
      16, (Uploads.size() * RepushEvery + RepushEvery - 2) / (RepushEvery - 1));
  Fleet F;
  F.Pool = std::move(Uploads);
  Prng Rng(fnv1a("fleet-layers", Seed));
  buildSchedule(F, Rng, "suite-" + std::to_string(Seed),
                Groups * IngestEvery);
  if (!startService(F))
    return false;
  SubRun S = runAndCheck(F, R);
  fleetLayers(F, S, T, R);
  return true;
}

} // namespace kbench

//===- aggregate/ProfileService.cpp ---------------------------------------===//

#include "aggregate/ProfileService.h"

#include "aggregate/ProfileMerge.h"
#include "compress/TraceIO.h"
#include "planner/Personality.h"
#include "report/ProfileExport.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <mutex>

using namespace kremlin;
using namespace kremlin::aggregate;
using kremlin::http::Request;
using kremlin::http::Response;
namespace tel = kremlin::telemetry;

static tel::Counter &counter(const char *Name) {
  return tel::Registry::global().counter(Name);
}

/// Records one sample into the per-(endpoint, status-class) latency
/// histogram. Every request records into exactly one, so
/// sum(serve.latency.*.count) == serve.requests stays exact.
static void recordLatency(const std::string &Endpoint, int Code,
                          uint64_t Us) {
  const char *Class = Code >= 500 ? "5xx" : Code >= 400 ? "4xx" : "2xx";
  tel::Registry::global()
      .histogram("serve.latency." + Endpoint + "." + Class)
      .record(Us);
}

Expected<std::unique_ptr<ProfileService>>
ProfileService::create(const ServiceOptions &Opts) {
  std::unique_ptr<ProfileService> S(new ProfileService(Opts));
  if (!Opts.AccessLogPath.empty()) {
    Expected<std::unique_ptr<AccessLog>> Log =
        AccessLog::open(Opts.AccessLogPath);
    if (!Log.ok())
      return Log.status();
    S->Log = Log.takeValue();
  }
  if (!Opts.StoreDir.empty()) {
    Expected<ProfileStore> Store = ProfileStore::open(Opts.StoreDir);
    if (!Store.ok())
      return Store.status();
    Expected<DictionaryCompressor> Seed = Store.value().mergeAll(
        TraceReadLimits{Opts.MaxIngestBytes});
    if (!Seed.ok())
      return Seed.status();
    S->Store.emplace(Store.takeValue());
    if (!S->Store->entries().empty()) {
      mergeInto(S->Merged, Seed.value());
      S->Ingested = S->Store->entries().size();
      ++S->Generation;
    }
  }
  return S;
}

Status ProfileService::ingest(const DictionaryCompressor &Dict,
                              const std::string &Name,
                              const std::string &Source,
                              const std::string &IdemKey,
                              bool *Deduplicated) {
  std::unique_lock Lock(Mutex);
  if (!IdemKey.empty() && SeenKeys.count(IdemKey)) {
    // A retry of an upload that already landed (the client just never saw
    // the ack): acknowledge without merging again.
    if (Deduplicated)
      *Deduplicated = true;
    counter("serve.ingest.dedup").add();
    return Status::success();
  }
  // Durable write first: if it fails, nothing merged, and the client's
  // retry (same key, not yet recorded) re-attempts cleanly.
  if (Store && !Name.empty()) {
    tel::Span WriteSpan("serve.store.write", "serve");
    WriteSpan.arg("name", Name);
    TraceMeta Meta;
    Meta.Source = Source;
    if (Status St = Store->add(Name, Dict, Meta); !St.ok())
      return St;
  }
  {
    tel::Span MergeSpan("serve.merge", "serve");
    mergeInto(Merged, Dict);
  }
  ++Ingested;
  ++Generation;
  if (!IdemKey.empty()) {
    SeenKeys.insert(IdemKey);
    KeyOrder.push_back(IdemKey);
    while (KeyOrder.size() > Opts.MaxIdempotencyKeys) {
      SeenKeys.erase(KeyOrder.front());
      KeyOrder.pop_front();
    }
  }
  return Status::success();
}

bool ProfileService::admit() {
  uint64_t Now = Pending.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Opts.MaxQueue && Now > Opts.MaxQueue) {
    Pending.fetch_sub(1, std::memory_order_relaxed);
    // The shed connection never reaches handle(): account it here so the
    // counter equation covers shed requests too. The per-request latency
    // invariants get zero-valued samples — the request was refused before
    // it waited or ran.
    counter("serve.requests").add();
    counter("serve.shed").add();
    tel::Registry::global().histogram("serve.queue_wait_us").record(0);
    recordLatency("shed", 503, 0);
    return false;
  }
  return true;
}

void ProfileService::release() {
  Pending.fetch_sub(1, std::memory_order_relaxed);
}

void ProfileService::noteTimeout() {
  counter("serve.requests").add();
  counter("serve.timeouts").add();
  // The request never finished arriving; keep the per-request histogram
  // invariants exact with zero-valued samples.
  tel::Registry::global().histogram("serve.queue_wait_us").record(0);
  recordLatency("timeout", 408, 0);
}

Response ProfileService::shedResponse() {
  return Response::text(503, "server overloaded; retry later\n")
      .withRetryAfter(1);
}

uint64_t ProfileService::ingestCount() const {
  std::shared_lock Lock(Mutex);
  return Ingested;
}

uint64_t ProfileService::generation() const {
  std::shared_lock Lock(Mutex);
  return Generation;
}

Response ProfileService::handleIngest(const Request &Req,
                                      std::string &Dedup) {
  if (Req.Method != "POST")
    return Response::text(405, "POST a kremlin-trace body to /ingest\n");
  if (Opts.MaxIngestBytes && Req.Body.size() > Opts.MaxIngestBytes) {
    counter("ingest.budget_trips").add();
    return Response::text(
        413, formatString("profile upload (%s) exceeds the "
                          "--max-profile-mb budget (%s)\n",
                          formatBytes(Req.Body.size()).c_str(),
                          formatBytes(Opts.MaxIngestBytes).c_str()));
  }
  if (fault::enabled() && fault::shouldFail(fault::Site::Ingest))
    return Response::text(503, "profile ingest failed (KREMLIN_FAULT=" +
                                   fault::activeSpec() + ")\n");

  TraceMeta Meta;
  Expected<DictionaryCompressor> Dict = readTrace(Req.Body, &Meta);
  if (!Dict.ok())
    return Response::text(400, Dict.status().toString() + "\n");
  const std::string *Key = Req.header("idempotency-key");
  bool Deduplicated = false;
  if (Status St = ingest(Dict.value(), Req.query("name"), Meta.Source,
                         Key ? *Key : "", &Deduplicated);
      !St.ok())
    return Response::text(500, St.toString() + "\n");
  if (Key)
    Dedup = Deduplicated ? "deduplicated" : "merged";

  counter("serve.ingests").add();
  JsonValue Reply = JsonValue::makeObject();
  Reply.set("ingested", ingestCount());
  Reply.set("generation", generation());
  Reply.set("dynregions", Dict.value().numDynamicRegions());
  if (Deduplicated)
    Reply.set("deduplicated", true);
  return Response::json(200, Reply.serialize() + "\n");
}

Expected<std::string> ProfileService::viewBody(const std::string &Key,
                                               const std::string &Format,
                                               const std::string &Personality,
                                               bool &CacheHit) {
  {
    std::shared_lock Lock(Mutex);
    auto It = ViewCache.find(Key);
    if (It != ViewCache.end() && It->second.first == Generation) {
      CacheHit = true;
      return It->second.second;
    }
  }

  std::unique_lock Lock(Mutex);
  // Re-check: another rebuilder may have repopulated while we waited.
  auto It = ViewCache.find(Key);
  if (It != ViewCache.end() && It->second.first == Generation) {
    CacheHit = true;
    return It->second.second;
  }
  CacheHit = false;
  if (Merged.roots().empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "no profiles ingested yet")
        .withStage("serve-view");

  tel::Span RenderSpan("serve.view.render", "serve");
  RenderSpan.arg("format", Format);
  Module M = syntheticModule(Merged);
  ParallelismProfile P(M, Merged);
  std::string Body;
  if (Format == "plan") {
    std::unique_ptr<kremlin::Personality> Pers =
        makePersonality(Personality);
    if (!Pers)
      return Status::error(ErrorCode::InvalidArgument,
                           "unknown personality '" + Personality + "'")
          .withStage("serve-view");
    Plan ThePlan = Pers->plan(P, PlannerOptions());
    Body = printPlan(M, ThePlan, Opts.PlanRows);
  } else {
    Expected<std::string> View =
        report::renderView(P, Merged, Format, "fleet");
    if (!View.ok())
      return Status::error(ErrorCode::InvalidArgument,
                           "unknown format '" + Format + "' (plan|" +
                               std::string(report::ViewFormats) + ")")
          .withStage("serve-view");
    Body = View.takeValue();
  }
  ViewCache[Key] = {Generation, Body};
  return Body;
}

Response ProfileService::handleProfile(const Request &Req) {
  std::string Format = Req.query("format", "speedscope");
  std::string Personality = Req.query("personality", "openmp");
  std::string Key = Format + ":" + (Format == "plan" ? Personality : "");
  bool CacheHit = false;
  Expected<std::string> Body = viewBody(Key, Format, Personality, CacheHit);
  if (!Body.ok()) {
    int Code =
        Body.status().code() == ErrorCode::InvalidArgument &&
                Body.status().message().rfind("no profiles", 0) == 0
            ? 404
            : 400;
    return Response::text(Code, Body.status().toString() + "\n");
  }
  counter(CacheHit ? "serve.cache.hits" : "serve.cache.misses").add();
  bool IsJson = Format == "speedscope" || Format == "timeline";
  return IsJson ? Response::json(200, Body.takeValue())
                : Response::text(200, Body.takeValue());
}

Response ProfileService::handleMetrics(const Request &Req, uint64_t StartUs,
                                       const std::string &Endpoint,
                                       bool &LatencyRecorded) {
  std::string Format = Req.query("format", "table");
  if (Format != "table" && Format != "json" && Format != "prometheus")
    return Response::text(400, "unknown metrics format '" + Format +
                                   "' (table|json|prometheus)\n");
  counter("serve.metrics").add();
  // This request's own latency goes into the registry before rendering,
  // so the snapshot the client receives already satisfies
  // sum(serve.latency.*.count) == serve.requests.
  recordLatency(Endpoint, 200, tel::nowUs() - StartUs);
  LatencyRecorded = true;
  tel::Registry &Reg = tel::Registry::global();
  if (Format == "prometheus")
    return Response::text(200, Reg.renderPrometheus());
  if (Format == "json")
    return Response::json(200, Reg.toJson().serialize(2) + "\n");
  return Response::text(200, Reg.renderTable());
}

Response ProfileService::healthzBody() const {
  JsonValue H = JsonValue::makeObject();
  H.set("status", std::string("ok"));
  H.set("uptime_seconds", static_cast<double>(tel::nowUs()) / 1e6);
  H.set("generation", generation());
  H.set("profiles", ingestCount());
  H.set("schema", TraceSchemaVersion);
  return Response::json(200, H.serialize() + "\n");
}

Response ProfileService::handle(const Request &Req) {
  // serve.requests first, and /metrics bumps its category before
  // rendering: a /metrics response then shows itself fully accounted, so
  // a quiesced client can assert the accounting equation on the body it
  // just received.
  counter("serve.requests").add();
  const uint64_t StartUs = tel::nowUs();

  // The request runs under its propagated (or freshly minted) trace
  // context: the serve.request span and every child span recorded below
  // carry the same trace id the client's attempt spans do.
  tel::TraceContext Ctx = http::requestTraceContext(Req);
  tel::ScopedTraceContext TraceScope(Ctx);
  tel::Span ReqSpan("serve.request", "serve");
  ReqSpan.arg("method", Req.Method);
  ReqSpan.arg("path", Req.Path);
  if (!Ctx.SpanId.empty())
    ReqSpan.arg("parent_span", Ctx.SpanId);

  // Per-request accounting recorded up front: one queue-wait sample per
  // request, plus the live queue-depth and uptime gauges.
  tel::Registry &Reg = tel::Registry::global();
  Reg.histogram("serve.queue_wait_us").record(Req.QueueWaitUs);
  Reg.gauge("serve.queue_depth").set(static_cast<double>(pendingCount()));
  Reg.gauge("serve.uptime_seconds").set(static_cast<double>(StartUs) / 1e6);
  if (Req.QueueWaitUs)
    tel::recordSpanAt("serve.queue_wait", "serve",
                      StartUs - Req.QueueWaitUs, Req.QueueWaitUs);

  std::string Endpoint = "other";
  std::string Dedup = "none";
  bool LatencyRecorded = false;
  Response Resp;
  bool Shed = false;
  if (Req.Path == "/healthz") {
    Endpoint = "healthz";
    counter("serve.healthz").add();
    Resp = healthzBody();
  } else if (Req.Path == "/metrics") {
    Endpoint = "metrics";
    Resp = handleMetrics(Req, StartUs, Endpoint, LatencyRecorded);
  } else if (Req.Path == "/ingest" || Req.Path == "/profile") {
    Endpoint = Req.Path == "/ingest" ? "ingest" : "profile";
    // The shed drill covers only the work endpoints: health and metrics
    // stay observable under (simulated) overload, exactly as the real
    // admission path keeps them cheap.
    if (fault::enabled() && fault::shouldFail(fault::Site::Shed)) {
      Shed = true;
      counter("serve.shed").add();
      Resp = shedResponse();
    } else {
      Resp = Req.Path == "/ingest" ? handleIngest(Req, Dedup)
                                   : handleProfile(Req);
    }
  } else {
    Resp = Response::text(
        404, "no such endpoint (try /ingest, /profile, /metrics, "
             "/healthz)\n");
  }
  // Exact accounting: every request bumps exactly one category. Success
  // paths bumped theirs above; a shed request is serve.shed, not an
  // error; any other error response lands in serve.errors
  // (405/413/503/400/404/500 alike).
  if (!Shed && Resp.Code >= 400)
    counter("serve.errors").add();
  counter("serve.bytes_out").add(Resp.Body.size());
  if (!LatencyRecorded)
    recordLatency(Endpoint, Resp.Code, tel::nowUs() - StartUs);
  ReqSpan.arg("status", std::to_string(Resp.Code));

  if (Log) {
    AccessLogEntry E;
    E.TraceId = Ctx.TraceId;
    E.Method = Req.Method;
    E.Path = Req.Path;
    E.Status = Resp.Code;
    E.BytesIn = Req.Body.size();
    E.BytesOut = Resp.Body.size();
    E.QueueWaitUs = Req.QueueWaitUs;
    E.HandlerUs = tel::nowUs() - StartUs;
    E.Dedup = Dedup;
    Log->append(E);
  }
  return Resp;
}

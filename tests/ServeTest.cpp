//===- tests/ServeTest.cpp - ProfileService endpoint tests ----------------===//
//
// Drives the `kremlin serve` request handler directly (no sockets): ingest
// and view round trips, the generation-counter cache, the byte budget, the
// ingest fault drill, exact counter accounting, and store-backed
// persistence across service restarts.
//
//===----------------------------------------------------------------------===//

#include "aggregate/ProfileService.h"

#include "TestUtil.h"

#include "aggregate/ProfileMerge.h"
#include "compress/TraceIO.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <set>

using namespace kremlin;
using namespace kremlin::aggregate;
namespace tel = kremlin::telemetry;

namespace {

/// A small two-entry profile (a leaf region under main).
DictionaryCompressor sampleProfile(uint64_t LeafWork = 10) {
  DictionaryCompressor Dict;
  DynRegionSummary Leaf;
  Leaf.Static = 1;
  Leaf.Work = LeafWork;
  Leaf.Cp = LeafWork / 2 + 1;
  SummaryChar LeafChar = Dict.intern(Leaf);
  DynRegionSummary Main;
  Main.Static = 0;
  Main.Work = 3 * LeafWork;
  Main.Cp = 2 * LeafWork;
  Main.Children.emplace_back(LeafChar, 2);
  Dict.onRootExit(Dict.intern(Main));
  return Dict;
}

http::Request makeRequest(const std::string &Method, const std::string &Path,
                          std::map<std::string, std::string> Query = {},
                          std::string Body = "") {
  http::Request Req;
  Req.Method = Method;
  Req.Path = Path;
  Req.Query = std::move(Query);
  Req.Body = std::move(Body);
  return Req;
}

std::unique_ptr<ProfileService> makeService(ServiceOptions Opts = {}) {
  Expected<std::unique_ptr<ProfileService>> Svc = ProfileService::create(Opts);
  EXPECT_TRUE(Svc.ok()) << Svc.status().toString();
  return Svc.ok() ? Svc.takeValue() : nullptr;
}

uint64_t count(const char *Name) {
  return tel::Registry::global().counter(Name).value();
}

/// Total sample count across every serve.latency.<endpoint>.<class>
/// histogram — one side of the per-request histogram invariant.
uint64_t latencyCountSum() {
  uint64_t Sum = 0;
  for (const auto &[Name, Value] : tel::Registry::global().snapshot())
    if (Name.rfind("serve.latency.", 0) == 0 && Name.size() > 6 &&
        Name.compare(Name.size() - 6, 6, ".count") == 0)
      Sum += static_cast<uint64_t>(Value);
  return Sum;
}

uint64_t queueWaitCount() {
  return tel::Registry::global().histogram("serve.queue_wait_us").count();
}

TEST(Serve, IngestThenViewRoundTrip) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);

  // Views 404 before anything is ingested.
  http::Response Empty = Svc->handle(makeRequest("GET", "/profile"));
  EXPECT_EQ(Empty.Code, 404);
  EXPECT_NE(Empty.Body.find("no profiles ingested yet"), std::string::npos);

  http::Response In = Svc->handle(
      makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));
  ASSERT_EQ(In.Code, 200) << In.Body;
  JsonValue Reply;
  ASSERT_TRUE(JsonValue::parse(In.Body, Reply));
  EXPECT_EQ(Reply.getNumber("ingested"), 1);
  EXPECT_EQ(Reply.getNumber("dynregions"), 2);
  EXPECT_EQ(Svc->ingestCount(), 1u);

  // Every format renders against the synthetic module.
  for (const char *Format :
       {"speedscope", "tree", "collapsed", "timeline", "plan"}) {
    http::Response V = Svc->handle(
        makeRequest("GET", "/profile", {{"format", Format}}));
    EXPECT_EQ(V.Code, 200) << Format << ": " << V.Body;
    EXPECT_FALSE(V.Body.empty()) << Format;
  }
  // The speedscope and timeline views are valid JSON documents.
  http::Response Speed = Svc->handle(
      makeRequest("GET", "/profile", {{"format", "speedscope"}}));
  JsonValue Doc;
  EXPECT_TRUE(JsonValue::parse(Speed.Body, Doc));

  EXPECT_EQ(Svc->handle(makeRequest("GET", "/healthz")).Code, 200);
  http::Response Metrics = Svc->handle(makeRequest("GET", "/metrics"));
  EXPECT_EQ(Metrics.Code, 200);
  EXPECT_NE(Metrics.Body.find("serve.requests"), std::string::npos);
}

TEST(Serve, CallChainViewIsOneSamplePerRegion) {
  // A region graph with 2^24 root-to-leaf paths renders one sample per
  // region, and the weights still sum to the program's work.
  kremlin::test::ProfiledRun Run =
      kremlin::test::profileSource(kremlin::test::callChainSource(24));
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  ASSERT_EQ(Svc->handle(makeRequest("POST", "/ingest", {},
                                    writeTrace(*Run.Dict)))
                .Code,
            200);
  http::Response View =
      Svc->handle(makeRequest("GET", "/profile", {{"format", "speedscope"}}));
  ASSERT_EQ(View.Code, 200);
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(View.Body, Doc));
  const JsonValue &Profile = Doc.get("profiles")->at(0);
  const JsonValue *Samples = Profile.get("samples");
  const JsonValue *Weights = Profile.get("weights");
  std::set<double> Leaves;
  double WeightSum = 0;
  for (size_t I = 0; I < Samples->size(); ++I) {
    const JsonValue &Stack = Samples->at(I);
    EXPECT_TRUE(Leaves.insert(Stack.at(Stack.size() - 1).asNumber()).second)
        << "a region is sampled twice";
    WeightSum += Weights->at(I).asNumber();
  }
  size_t Executed = 0;
  for (const RegionProfileEntry &E : Run.Profile->entries())
    Executed += E.Executed;
  EXPECT_LE(Samples->size(), Executed);
  EXPECT_LE(Doc.get("shared")->get("frames")->size(), Executed);
  EXPECT_EQ(WeightSum, static_cast<double>(Run.Profile->programWork()));
  EXPECT_EQ(Profile.getNumber("endValue"), WeightSum);
}

TEST(Serve, ErrorPathsReturnStructuredCodes) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));

  EXPECT_EQ(Svc->handle(makeRequest("GET", "/ingest")).Code, 405);
  EXPECT_EQ(Svc->handle(makeRequest("POST", "/ingest", {}, "not a trace"))
                .Code,
            400);
  http::Response BadFormat = Svc->handle(
      makeRequest("GET", "/profile", {{"format", "xml"}}));
  EXPECT_EQ(BadFormat.Code, 400);
  EXPECT_NE(BadFormat.Body.find("unknown format"), std::string::npos);
  http::Response BadPers = Svc->handle(makeRequest(
      "GET", "/profile", {{"format", "plan"}, {"personality", "magic"}}));
  EXPECT_EQ(BadPers.Code, 400);
  EXPECT_EQ(Svc->handle(makeRequest("GET", "/nope")).Code, 404);
}

TEST(Serve, CacheHitsUntilIngestBumpsGeneration) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));
  uint64_t Gen = Svc->generation();

  uint64_t Hits0 = count("serve.cache.hits");
  uint64_t Misses0 = count("serve.cache.misses");
  Svc->handle(makeRequest("GET", "/profile", {{"format", "tree"}}));
  EXPECT_EQ(count("serve.cache.misses"), Misses0 + 1);
  Svc->handle(makeRequest("GET", "/profile", {{"format", "tree"}}));
  Svc->handle(makeRequest("GET", "/profile", {{"format", "tree"}}));
  EXPECT_EQ(count("serve.cache.hits"), Hits0 + 2);
  EXPECT_EQ(count("serve.cache.misses"), Misses0 + 1);

  // An ingest invalidates: next read is a miss at the new generation.
  Svc->handle(
      makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile(20))));
  EXPECT_EQ(Svc->generation(), Gen + 1);
  Svc->handle(makeRequest("GET", "/profile", {{"format", "tree"}}));
  EXPECT_EQ(count("serve.cache.misses"), Misses0 + 2);

  // Distinct plan personalities cache under distinct keys.
  Svc->handle(makeRequest("GET", "/profile",
                          {{"format", "plan"}, {"personality", "openmp"}}));
  Svc->handle(makeRequest("GET", "/profile",
                          {{"format", "plan"}, {"personality", "cilk"}}));
  EXPECT_EQ(count("serve.cache.misses"), Misses0 + 4);
}

TEST(Serve, CounterEquationHoldsAfterMixedTraffic) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  uint64_t Req0 = count("serve.requests"), In0 = count("serve.ingests"),
           Hit0 = count("serve.cache.hits"),
           Miss0 = count("serve.cache.misses"),
           Hp0 = count("serve.healthz"), Met0 = count("serve.metrics"),
           Err0 = count("serve.errors");

  Svc->handle(makeRequest("GET", "/profile"));                       // 404
  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));
  Svc->handle(makeRequest("GET", "/profile"));                       // miss
  Svc->handle(makeRequest("GET", "/profile"));                       // hit
  Svc->handle(makeRequest("GET", "/healthz"));
  Svc->handle(makeRequest("POST", "/ingest", {}, "garbage"));        // 400
  Svc->handle(makeRequest("GET", "/metrics"));

  uint64_t Requests = count("serve.requests") - Req0;
  EXPECT_EQ(Requests, 7u);
  EXPECT_EQ(Requests, (count("serve.ingests") - In0) +
                          (count("serve.cache.hits") - Hit0) +
                          (count("serve.cache.misses") - Miss0) +
                          (count("serve.healthz") - Hp0) +
                          (count("serve.metrics") - Met0) +
                          (count("serve.errors") - Err0));
}

TEST(Serve, IngestBudgetTripsWith413) {
  ServiceOptions Opts;
  Opts.MaxIngestBytes = 64;
  std::unique_ptr<ProfileService> Svc = makeService(Opts);
  ASSERT_TRUE(Svc);
  uint64_t Trips0 = count("ingest.budget_trips");
  http::Response R = Svc->handle(makeRequest(
      "POST", "/ingest", {}, writeTrace(sampleProfile()) + std::string(64, '#')));
  EXPECT_EQ(R.Code, 413);
  EXPECT_NE(R.Body.find("--max-profile-mb"), std::string::npos);
  EXPECT_EQ(count("ingest.budget_trips"), Trips0 + 1);
  EXPECT_EQ(Svc->ingestCount(), 0u);
}

TEST(Serve, IngestFaultDrillAnswers503) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  ASSERT_TRUE(fault::configure("ingest:1.0"));
  http::Response R = Svc->handle(
      makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));
  fault::reset();
  EXPECT_EQ(R.Code, 503);
  EXPECT_NE(R.Body.find("KREMLIN_FAULT"), std::string::npos);
  EXPECT_EQ(Svc->ingestCount(), 0u);

  // With the drill off the same upload goes through.
  EXPECT_EQ(Svc->handle(makeRequest("POST", "/ingest", {},
                                    writeTrace(sampleProfile())))
                .Code,
            200);
}

TEST(Serve, IdempotencyKeyDeduplicatesRetriedUploads) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  std::string Body = writeTrace(sampleProfile());
  http::Request Req = makeRequest("POST", "/ingest", {}, Body);
  Req.Headers.emplace_back("idempotency-key", "crc32-deadbeef-42");

  http::Response First = Svc->handle(Req);
  ASSERT_EQ(First.Code, 200) << First.Body;
  EXPECT_EQ(Svc->ingestCount(), 1u);
  uint64_t Gen = Svc->generation();

  // The retry of an upload that already landed: acked 200, flagged as
  // deduplicated, and nothing merged twice.
  http::Response Again = Svc->handle(Req);
  ASSERT_EQ(Again.Code, 200) << Again.Body;
  JsonValue Reply;
  ASSERT_TRUE(JsonValue::parse(Again.Body, Reply));
  EXPECT_TRUE(Reply.get("deduplicated"));
  EXPECT_EQ(Svc->ingestCount(), 1u);
  EXPECT_EQ(Svc->generation(), Gen);

  // A different key is a different upload.
  Req.Headers.back().second = "crc32-deadbeef-43";
  ASSERT_EQ(Svc->handle(Req).Code, 200);
  EXPECT_EQ(Svc->ingestCount(), 2u);
}

TEST(Serve, IdempotencyKeySetIsBounded) {
  ServiceOptions Opts;
  Opts.MaxIdempotencyKeys = 2;
  std::unique_ptr<ProfileService> Svc = makeService(Opts);
  ASSERT_TRUE(Svc);
  auto Push = [&](const std::string &Key) {
    http::Request Req =
        makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile()));
    Req.Headers.emplace_back("idempotency-key", Key);
    return Svc->handle(Req);
  };
  ASSERT_EQ(Push("k1").Code, 200);
  ASSERT_EQ(Push("k2").Code, 200);
  ASSERT_EQ(Push("k3").Code, 200); // Evicts k1 (FIFO).
  EXPECT_EQ(Svc->ingestCount(), 3u);
  // k1 fell out of the window: it merges again rather than deduplicating.
  ASSERT_EQ(Push("k1").Code, 200);
  EXPECT_EQ(Svc->ingestCount(), 4u);
  // k3 is still remembered.
  ASSERT_EQ(Push("k3").Code, 200);
  EXPECT_EQ(Svc->ingestCount(), 4u);
}

TEST(Serve, ShedDrillAnswers503WithRetryAfter) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));

  uint64_t Shed0 = count("serve.shed"), Err0 = count("serve.errors");
  ASSERT_TRUE(fault::configure("shed:1.0"));
  http::Response Ingest = Svc->handle(
      makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));
  http::Response View = Svc->handle(makeRequest("GET", "/profile"));
  // Health and metrics stay observable under overload.
  http::Response Health = Svc->handle(makeRequest("GET", "/healthz"));
  http::Response Metrics = Svc->handle(makeRequest("GET", "/metrics"));
  fault::reset();

  EXPECT_EQ(Ingest.Code, 503);
  EXPECT_EQ(View.Code, 503);
  EXPECT_EQ(Health.Code, 200);
  EXPECT_EQ(Metrics.Code, 200);
  bool HasRetryAfter = false;
  for (const auto &[Name, Value] : Ingest.Headers)
    HasRetryAfter |= Name == "Retry-After" && !Value.empty();
  EXPECT_TRUE(HasRetryAfter);
  EXPECT_EQ(count("serve.shed"), Shed0 + 2);
  // Shed requests are serve.shed, not serve.errors — the equation splits
  // them so an overloaded-but-healthy server is distinguishable from a
  // failing one.
  EXPECT_EQ(count("serve.errors"), Err0);
  EXPECT_EQ(Svc->ingestCount(), 1u);
}

TEST(Serve, AdmissionQueueBoundsAndReleases) {
  ServiceOptions Opts;
  Opts.MaxQueue = 2;
  std::unique_ptr<ProfileService> Svc = makeService(Opts);
  ASSERT_TRUE(Svc);

  uint64_t Req0 = count("serve.requests"), Shed0 = count("serve.shed");
  EXPECT_TRUE(Svc->admit());
  EXPECT_TRUE(Svc->admit());
  EXPECT_EQ(Svc->pendingCount(), 2u);
  // Queue full: the reject is accounted as a shed request right here
  // (the connection never reaches handle()).
  EXPECT_FALSE(Svc->admit());
  EXPECT_EQ(Svc->pendingCount(), 2u);
  EXPECT_EQ(count("serve.requests"), Req0 + 1);
  EXPECT_EQ(count("serve.shed"), Shed0 + 1);

  // Releasing a slot re-opens admission.
  Svc->release();
  EXPECT_TRUE(Svc->admit());
  EXPECT_FALSE(Svc->admit());
  Svc->release();
  Svc->release();
  EXPECT_EQ(Svc->pendingCount(), 0u);

  // The canned shed response carries the backoff hint.
  http::Response Shed = ProfileService::shedResponse();
  EXPECT_EQ(Shed.Code, 503);
  ASSERT_EQ(Shed.Headers.size(), 1u);
  EXPECT_EQ(Shed.Headers[0].first, "Retry-After");
}

TEST(Serve, ExtendedCounterEquationCoversShedAndTimeouts) {
  ServiceOptions Opts;
  Opts.MaxQueue = 1;
  std::unique_ptr<ProfileService> Svc = makeService(Opts);
  ASSERT_TRUE(Svc);
  uint64_t Req0 = count("serve.requests"), In0 = count("serve.ingests"),
           Hit0 = count("serve.cache.hits"),
           Miss0 = count("serve.cache.misses"),
           Hp0 = count("serve.healthz"), Met0 = count("serve.metrics"),
           Err0 = count("serve.errors"), Shed0 = count("serve.shed"),
           To0 = count("serve.timeouts");

  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));
  Svc->handle(makeRequest("GET", "/profile"));                // miss
  Svc->handle(makeRequest("GET", "/healthz"));
  Svc->handle(makeRequest("POST", "/ingest", {}, "garbage")); // 400
  // One accept-thread shed (queue full) and one transport 408.
  ASSERT_TRUE(Svc->admit());
  EXPECT_FALSE(Svc->admit());
  Svc->release();
  ProfileService::noteTimeout();
  // One drill-shed work request.
  ASSERT_TRUE(fault::configure("shed:1.0"));
  Svc->handle(makeRequest("GET", "/profile"));
  fault::reset();
  Svc->handle(makeRequest("GET", "/metrics"));

  uint64_t Requests = count("serve.requests") - Req0;
  EXPECT_EQ(Requests, 8u);
  EXPECT_EQ(Requests, (count("serve.ingests") - In0) +
                          (count("serve.cache.hits") - Hit0) +
                          (count("serve.cache.misses") - Miss0) +
                          (count("serve.healthz") - Hp0) +
                          (count("serve.metrics") - Met0) +
                          (count("serve.errors") - Err0) +
                          (count("serve.shed") - Shed0) +
                          (count("serve.timeouts") - To0));
  EXPECT_EQ(count("serve.shed") - Shed0, 2u);
  EXPECT_EQ(count("serve.timeouts") - To0, 1u);
}

TEST(Serve, QueueWaitAndLatencyHistogramsBalanceTheRequestCount) {
  ServiceOptions Opts;
  Opts.MaxQueue = 1;
  std::unique_ptr<ProfileService> Svc = makeService(Opts);
  ASSERT_TRUE(Svc);
  uint64_t Req0 = count("serve.requests");
  uint64_t Qw0 = queueWaitCount(), Lat0 = latencyCountSum();

  // Every admission path must land exactly one queue-wait sample and one
  // latency sample: handled requests, accept-thread sheds, transport
  // timeouts, drill sheds, and the /metrics snapshot itself.
  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));
  Svc->handle(makeRequest("GET", "/profile"));                // miss, 200
  Svc->handle(makeRequest("GET", "/healthz"));
  Svc->handle(makeRequest("POST", "/ingest", {}, "garbage")); // 400
  ASSERT_TRUE(Svc->admit());
  EXPECT_FALSE(Svc->admit()); // queue full: shed before handle()
  Svc->release();
  ProfileService::noteTimeout();
  ASSERT_TRUE(fault::configure("shed:1.0"));
  Svc->handle(makeRequest("GET", "/profile")); // drill shed, 503
  fault::reset();
  Svc->handle(makeRequest("GET", "/metrics", {{"format", "bogus"}})); // 400
  // The prometheus render counts itself *before* rendering, so the counts
  // in the scraped text already include this request.
  http::Response Prom = Svc->handle(
      makeRequest("GET", "/metrics", {{"format", "prometheus"}}));
  ASSERT_EQ(Prom.Code, 200);

  uint64_t Requests = count("serve.requests") - Req0;
  EXPECT_EQ(Requests, 9u);
  EXPECT_EQ(queueWaitCount() - Qw0, Requests);
  EXPECT_EQ(latencyCountSum() - Lat0, Requests);
}

TEST(Serve, HealthzReportsStoreStateAsJson) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));

  http::Response R = Svc->handle(makeRequest("GET", "/healthz"));
  ASSERT_EQ(R.Code, 200);
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(R.Body, Doc)) << R.Body;
  EXPECT_TRUE(Doc.get("status"));
  EXPECT_GE(Doc.getNumber("uptime_seconds"), 0.0);
  EXPECT_EQ(Doc.getNumber("generation"),
            static_cast<double>(Svc->generation()));
  EXPECT_EQ(Doc.getNumber("profiles"), 1.0);
  EXPECT_EQ(Doc.getNumber("schema"), static_cast<double>(TraceSchemaVersion));
  EXPECT_GE(tel::Registry::global().gauge("serve.uptime_seconds").value(),
            0.0);
}

TEST(Serve, MetricsFormatDispatch) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  Svc->handle(makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile())));

  http::Response Prom = Svc->handle(
      makeRequest("GET", "/metrics", {{"format", "prometheus"}}));
  ASSERT_EQ(Prom.Code, 200);
  EXPECT_NE(Prom.Body.find("# TYPE kremlin_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(Prom.Body.find("_bucket{le=\"+Inf\"}"), std::string::npos);

  http::Response Json = Svc->handle(
      makeRequest("GET", "/metrics", {{"format", "json"}}));
  ASSERT_EQ(Json.Code, 200);
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Json.Body, Doc));
  ASSERT_TRUE(Doc.get("metrics"));
  EXPECT_GE(Doc.get("metrics")->getNumber("serve.requests"), 1.0);

  // Unknown formats are client errors and do not count as metric serves.
  uint64_t Met0 = count("serve.metrics"), Err0 = count("serve.errors");
  http::Response Bad = Svc->handle(
      makeRequest("GET", "/metrics", {{"format", "xml"}}));
  EXPECT_EQ(Bad.Code, 400);
  EXPECT_NE(Bad.Body.find("unknown metrics format"), std::string::npos);
  EXPECT_EQ(count("serve.metrics"), Met0);
  EXPECT_EQ(count("serve.errors"), Err0 + 1);
}

TEST(Serve, RequestSpansCarryTheTraceIdEvenWhenShed) {
  std::unique_ptr<ProfileService> Svc = makeService();
  ASSERT_TRUE(Svc);
  bool WasEnabled = tel::traceEnabled();
  tel::setTraceEnabled(true);
  tel::takeTrace(); // Start from an empty window.

  tel::TraceContext Ctx = tel::mintTraceContext();
  http::Request Req = makeRequest("GET", "/profile");
  Req.TraceId = Ctx.TraceId;
  Req.ParentSpanId = Ctx.SpanId;
  ASSERT_TRUE(fault::configure("shed:1.0"));
  http::Response R = Svc->handle(Req);
  fault::reset();
  EXPECT_EQ(R.Code, 503);

  std::vector<tel::TraceEvent> Events = tel::takeTrace();
  tel::setTraceEnabled(WasEnabled);
  bool SawRequestSpan = false;
  for (const tel::TraceEvent &E : Events) {
    if (E.Name != "serve.request")
      continue;
    std::string Trace, Status;
    for (const auto &[K, V] : E.Args) {
      if (K == "trace_id")
        Trace = V;
      if (K == "status")
        Status = V;
    }
    EXPECT_EQ(Trace, Ctx.TraceId);
    EXPECT_EQ(Status, "503");
    SawRequestSpan = true;
  }
  EXPECT_TRUE(SawRequestSpan);
}

TEST(Serve, AccessLogRecordsRequestsWithDedupOutcomes) {
  std::string Dir = ::testing::TempDir() + "/kremlin_serve_accesslog";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  ServiceOptions Opts;
  Opts.AccessLogPath = Dir + "/access.log";

  {
    std::unique_ptr<ProfileService> Svc = makeService(Opts);
    ASSERT_TRUE(Svc);
    http::Request Keyed =
        makeRequest("POST", "/ingest", {}, writeTrace(sampleProfile()));
    Keyed.Headers.emplace_back("idempotency-key", "crc32-feedface-7");
    ASSERT_EQ(Svc->handle(Keyed).Code, 200); // merged
    ASSERT_EQ(Svc->handle(Keyed).Code, 200); // deduplicated
    ASSERT_EQ(Svc->handle(makeRequest("GET", "/profile")).Code, 200);
  } // Destroying the service flushes and closes the log.

  std::ifstream In(Opts.AccessLogPath);
  ASSERT_TRUE(In.is_open());
  std::vector<std::string> Dedups;
  std::string Line;
  while (std::getline(In, Line)) {
    JsonValue Entry;
    ASSERT_TRUE(JsonValue::parse(Line, Entry)) << Line;
    const JsonValue *Trace = Entry.get("trace_id");
    ASSERT_TRUE(Trace && Trace->isString());
    EXPECT_EQ(Trace->asString().size(), 32u);
    EXPECT_TRUE(Entry.get("method"));
    EXPECT_TRUE(Entry.get("path"));
    EXPECT_GE(Entry.getNumber("status"), 200.0);
    EXPECT_GE(Entry.getNumber("handler_ms"), 0.0);
    const JsonValue *Dedup = Entry.get("dedup");
    ASSERT_TRUE(Dedup && Dedup->isString());
    Dedups.push_back(Dedup->asString());
  }
  ASSERT_EQ(Dedups.size(), 3u);
  EXPECT_EQ(Dedups[0], "merged");
  EXPECT_EQ(Dedups[1], "deduplicated");
  EXPECT_EQ(Dedups[2], "none");
  std::filesystem::remove_all(Dir);
}

TEST(Serve, StorePersistsNamedIngestsAcrossRestarts) {
  std::string Dir = ::testing::TempDir() + "/kremlin_serve_store";
  std::filesystem::remove_all(Dir);
  ServiceOptions Opts;
  Opts.StoreDir = Dir;

  {
    std::unique_ptr<ProfileService> Svc = makeService(Opts);
    ASSERT_TRUE(Svc);
    TraceMeta Meta;
    Meta.Source = "node7.c";
    http::Response R = Svc->handle(makeRequest(
        "POST", "/ingest", {{"name", "node7"}},
        writeTrace(sampleProfile(), Meta)));
    ASSERT_EQ(R.Code, 200) << R.Body;
    // Unnamed ingests merge but do not persist.
    ASSERT_EQ(Svc->handle(makeRequest("POST", "/ingest", {},
                                      writeTrace(sampleProfile(20))))
                  .Code,
              200);
    EXPECT_EQ(Svc->ingestCount(), 2u);
  }

  // A fresh service over the same store resumes from the persisted entry.
  std::unique_ptr<ProfileService> Svc = makeService(Opts);
  ASSERT_TRUE(Svc);
  EXPECT_EQ(Svc->ingestCount(), 1u);
  EXPECT_GE(Svc->generation(), 1u);
  EXPECT_EQ(Svc->handle(makeRequest("GET", "/profile", {{"format", "tree"}}))
                .Code,
            200);
  std::filesystem::remove_all(Dir);
}

} // namespace

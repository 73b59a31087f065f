//===- tests/StoreChaosTest.cpp - Crash/corruption chaos harness ----------===//
//
// The robustness drill the durable store exists for: a real `kremlin
// serve --store=` child is killed with SIGKILL mid-ingest, its store files
// are then corrupted and truncated by hand, and reopening must quarantine
// exactly the damaged entries by name while every intact profile stays
// servable. Plus the push-convergence property: `kremlin push` retrying
// against a fault-injected server merges each profile exactly once,
// bit-identical to one clean ingest — both through the in-process client
// API and through the real CLI binary, whose run also checks the
// observability contract: one trace id stitches client attempts to server
// handling, the access log is well-formed JSON lines, and the Prometheus
// exposition is typed, cumulative and balanced.
//
//===----------------------------------------------------------------------===//

#include "aggregate/ProfileService.h"
#include "aggregate/ProfileStore.h"
#include "aggregate/PushClient.h"
#include "compress/TraceIO.h"
#include "support/FaultInjection.h"
#include "support/Http.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace kremlin;
using namespace kremlin::aggregate;
using kremlin::test::expectNoSanitizerReport;
using kremlin::test::TraceCapture;
namespace fs = std::filesystem;
namespace tel = kremlin::telemetry;

namespace {

/// A synthetic kremlin-trace body whose content varies with \p LeafWork,
/// so distinct profiles carry distinct idempotency keys.
std::string sampleTrace(uint64_t LeafWork) {
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
  TraceMeta Meta;
  Meta.Source = "chaos";
  return writeTrace(Dict, Meta);
}

/// Spawns `kremlin serve` with \p ExtraArgs (and, when non-null, a
/// KREMLIN_FAULT spec in the child's environment), parses the announced
/// port, and reports the child pid. The child's stdout and stderr share
/// OutFd, which the caller owns until after waitpid; everything printed up
/// to the announcement goes to \p Announced when non-null.
bool launchServer(pid_t &Pid, uint16_t &Port, int &OutFd,
                  const std::vector<std::string> &ExtraArgs,
                  const char *FaultSpec = nullptr,
                  std::string *Announced = nullptr) {
  int Out[2];
  if (pipe(Out) != 0)
    return false;
  Pid = fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    dup2(Out[1], STDOUT_FILENO);
    dup2(Out[1], STDERR_FILENO);
    close(Out[0]);
    close(Out[1]);
    if (FaultSpec)
      setenv("KREMLIN_FAULT", FaultSpec, 1);
    std::vector<const char *> Argv = {KREMLIN_TOOL_PATH, "serve", "--port=0",
                                      "--threads=4"};
    for (const std::string &A : ExtraArgs)
      Argv.push_back(A.c_str());
    Argv.push_back(nullptr);
    execv(KREMLIN_TOOL_PATH,
          const_cast<char *const *>(
              reinterpret_cast<const char *const *>(Argv.data())));
    _exit(127);
  }
  close(Out[1]);

  std::string Announce;
  char C;
  const std::string Needle = "listening on 127.0.0.1:";
  size_t At = std::string::npos;
  while (At == std::string::npos && read(Out[0], &C, 1) == 1) {
    Announce += C;
    if (C == '\n')
      At = Announce.find(Needle);
  }
  OutFd = Out[0];
  if (Announced)
    *Announced = Announce;
  if (At == std::string::npos)
    return false;
  Port = static_cast<uint16_t>(
      std::strtoul(Announce.c_str() + At + Needle.size(), nullptr, 10));
  return Port != 0;
}

/// Reads \p Fd to EOF and closes it: the rest of an exiting child's output.
std::string drain(int Fd) {
  std::string Out;
  char Buf[4096];
  for (ssize_t N; (N = read(Fd, Buf, sizeof Buf)) > 0;)
    Out.append(Buf, static_cast<size_t>(N));
  close(Fd);
  return Out;
}

bool isTraceId(const std::string &Id) {
  return Id.size() == 32 &&
         std::all_of(Id.begin(), Id.end(), [](char C) {
           return (C >= '0' && C <= '9') || (C >= 'a' && C <= 'f');
         });
}

/// The trace ids the spans named \p Span carry in Chrome trace \p Path.
std::set<std::string> spanTraceIds(const std::string &Path,
                                   const std::string &Span) {
  std::string Text;
  JsonValue Doc;
  std::string Error;
  if (!readFileToString(Path, Text) || !JsonValue::parse(Text, Doc, &Error)) {
    ADD_FAILURE() << Path << " is not a Chrome trace: " << Error;
    return {};
  }
  std::set<std::string> Ids;
  const JsonValue *Events = Doc.get("traceEvents");
  for (size_t I = 0; Events && I < Events->size(); ++I) {
    const JsonValue &E = Events->at(I);
    const JsonValue *Name = E.get("name");
    const JsonValue *Args = E.get("args");
    const JsonValue *Id = Args ? Args->get("trace_id") : nullptr;
    if (Name && Name->asString() == Span && Id)
      Ids.insert(Id->asString());
  }
  return Ids;
}

/// The exposition contract of GET /metrics?format=prometheus: every sample
/// follows its family's # TYPE line, histogram buckets are cumulative, and
/// each request is counted once in the queue-wait histogram and once in
/// exactly one per-endpoint latency histogram.
void expectWellFormedPrometheus(const std::string &Body) {
  std::set<std::string> Typed;
  std::map<std::string, std::vector<double>> Buckets;
  std::map<std::string, double> Samples;
  for (const std::string &Line : splitString(Body, '\n')) {
    if (Line.rfind("# TYPE ", 0) == 0) {
      Typed.insert(splitString(Line, ' ')[2]);
      continue;
    }
    if (Line.empty() || Line[0] == '#')
      continue;
    std::string Name = Line.substr(0, Line.find_first_of("{ "));
    std::string Family = Name;
    for (const std::string Suffix : {"_bucket", "_sum", "_count"})
      if (Name.size() > Suffix.size() &&
          Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) ==
              0)
        Family = Name.substr(0, Name.size() - Suffix.size());
    EXPECT_TRUE(Typed.count(Name) || Typed.count(Family))
        << "sample " << Name << " not preceded by # TYPE";
    double Value = std::strtod(Line.c_str() + Line.rfind(' ') + 1, nullptr);
    if (Line.find("_bucket{") != std::string::npos)
      Buckets[Family].push_back(Value);
    else
      Samples[Name] = Value;
  }
  for (const auto &[Family, Series] : Buckets)
    EXPECT_TRUE(std::is_sorted(Series.begin(), Series.end()))
        << Family << " buckets not cumulative";
  ASSERT_TRUE(Samples.count("kremlin_serve_requests")) << Body;
  ASSERT_TRUE(Samples.count("kremlin_serve_queue_wait_us_count")) << Body;
  double Requests = Samples["kremlin_serve_requests"];
  double Latency = 0;
  for (const auto &[Name, Value] : Samples)
    if (Name.rfind("kremlin_serve_latency_", 0) == 0 &&
        Name.size() > 6 && Name.compare(Name.size() - 6, 6, "_count") == 0)
      Latency += Value;
  EXPECT_GT(Requests, 0);
  EXPECT_EQ(Requests, Samples["kremlin_serve_queue_wait_us_count"]);
  EXPECT_EQ(Requests, Latency);
}

std::string freshDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "/chaos_" + Tag + "_" +
                    std::to_string(::getpid());
  fs::remove_all(Dir);
  return Dir;
}

// --- The headline drill: SIGKILL mid-ingest, then hand-corruption. ------

TEST(StoreChaos, SigkillMidIngestThenCorruptionQuarantinesByName) {
  std::string Dir = freshDir("kill9");
  pid_t Pid = -1;
  uint16_t Port = 0;
  int OutFd = -1;
  ASSERT_TRUE(launchServer(Pid, Port, OutFd, {"--store=" + Dir}));

  // Three durable named ingests the crash must not lose.
  const char *Names[] = {"alpha", "beta", "gamma"};
  for (unsigned I = 0; I < 3; ++I) {
    Expected<http::ClientResponse> R =
        http::request("127.0.0.1", Port, "POST",
                      std::string("/ingest?name=") + Names[I],
                      sampleTrace(10 + I));
    ASSERT_TRUE(R.ok()) << R.status().toString();
    ASSERT_EQ(R->Code, 200) << R->Body;
  }

  // Hammer ingests from a side thread and SIGKILL the server mid-flight:
  // whatever "hammer" write was in progress dies with the process.
  std::atomic<bool> Stop{false};
  std::thread Hammer([Port, &Stop] {
    for (uint64_t W = 100; !Stop.load(); ++W)
      (void)http::request("127.0.0.1", Port, "POST", "/ingest?name=hammer",
                          sampleTrace(W));
  });
  ::usleep(20 * 1000);
  ASSERT_EQ(kill(Pid, SIGKILL), 0);
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  Stop = true;
  Hammer.join();
  close(OutFd);
  ASSERT_TRUE(WIFSIGNALED(WaitStatus));
  EXPECT_EQ(WTERMSIG(WaitStatus), SIGKILL);

  // Every acknowledged named ingest reached disk despite the SIGKILL.
  for (const char *Name : Names)
    ASSERT_TRUE(fs::exists(Dir + "/" + Name + ".prof")) << Name;

  // Now damage the survivors' store: clobber alpha's blob header (it no
  // longer decodes) and tear the index in half.
  std::string Blob;
  ASSERT_TRUE(readFileToString(Dir + "/alpha.prof", Blob));
  ASSERT_TRUE(writeStringToFile(Dir + "/alpha.prof",
                                "XXXX" + Blob.substr(4)));
  std::string Index;
  ASSERT_TRUE(readFileToString(Dir + "/index.json", Index));
  ASSERT_TRUE(
      writeStringToFile(Dir + "/index.json", Index.substr(0, Index.size() / 2)));

  // The operator-facing half: a relaunched `kremlin serve --store=`
  // announces what it quarantined, by name, and serves the survivors. It
  // runs on a copy, so the in-process reopen below still sees the damage.
  std::string Served = Dir + "_served";
  fs::remove_all(Served);
  fs::copy(Dir, Served, fs::copy_options::recursive);
  std::string Announced;
  ASSERT_TRUE(launchServer(Pid, Port, OutFd, {"--store=" + Served}, nullptr,
                           &Announced))
      << Announced;
  EXPECT_NE(Announced.find("store recovery:"), std::string::npos)
      << Announced;
  EXPECT_NE(Announced.find("quarantined"), std::string::npos) << Announced;
  EXPECT_NE(Announced.find("alpha"), std::string::npos) << Announced;
  Expected<http::ClientResponse> Survivors =
      http::request("127.0.0.1", Port, "GET", "/profile?format=collapsed");
  ASSERT_TRUE(Survivors.ok()) << Survivors.status().toString();
  EXPECT_EQ(Survivors->Code, 200) << Survivors->Body;
  ASSERT_EQ(kill(Pid, SIGTERM), 0);
  std::string Rest = drain(OutFd);
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 0)
      << Announced << Rest;
  expectNoSanitizerReport(Announced + Rest);
  EXPECT_TRUE(fs::exists(Served + "/quarantine/alpha.prof"));
  fs::remove_all(Served);

  // Recovery: the torn index and the mangled blob are quarantined *by
  // name*; beta and gamma are adopted back and stay servable.
  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_TRUE(Store.ok()) << Store.status().toString();
  const StoreRecovery &Rec = Store.value().recovery();
  EXPECT_TRUE(Rec.dirty());

  auto HasCasualty = [&Rec](const std::string &Name,
                            const std::string &ReasonPart) {
    for (const StoreRecovery::Casualty &Q : Rec.Quarantined)
      if (Q.Name == Name && Q.Reason.find(ReasonPart) != std::string::npos)
        return true;
    return false;
  };
  EXPECT_TRUE(HasCasualty("index.json", "torn index")) << Rec.summary();
  EXPECT_TRUE(HasCasualty("alpha", "undecodable blob")) << Rec.summary();
  EXPECT_TRUE(fs::exists(Dir + "/quarantine/alpha.prof"));

  bool SawBeta = false, SawGamma = false;
  for (const StoreEntry &E : Store.value().entries()) {
    SawBeta |= E.Name == "beta";
    SawGamma |= E.Name == "gamma";
  }
  EXPECT_TRUE(SawBeta);
  EXPECT_TRUE(SawGamma);
  EXPECT_GE(Rec.Recovered, 2u); // beta + gamma adopted from the torn index.
  EXPECT_TRUE(Store.value().load("beta").ok());
  EXPECT_TRUE(Store.value().mergeAll().ok());

  // The repair is durable: a second open finds nothing left to recover.
  Expected<ProfileStore> Again = ProfileStore::open(Dir);
  ASSERT_TRUE(Again.ok());
  EXPECT_FALSE(Again.value().recovery().dirty())
      << Again.value().recovery().summary();
  fs::remove_all(Dir);
}

// --- The convergence property: faulted push == one clean ingest. --------

TEST(StoreChaos, PushWithFaultsConvergesToOneCleanIngest) {
  // Three distinct profiles, written to disk the way a fleet node would
  // hand them to `kremlin push`.
  std::string Dir = freshDir("push");
  fs::create_directories(Dir);
  std::vector<std::string> Files;
  for (unsigned I = 0; I < 3; ++I) {
    std::string Path = Dir + "/node" + std::to_string(I) + ".prof";
    ASSERT_TRUE(writeStringToFile(Path, sampleTrace(50 + I * 7)));
    Files.push_back(Path);
  }

  // The faulted server: every /ingest may be shed (503 + Retry-After) or
  // fail its ingest drill (503) — both retryable.
  ServiceOptions SvcOpts;
  Expected<std::unique_ptr<ProfileService>> Faulted =
      ProfileService::create(SvcOpts);
  ASSERT_TRUE(Faulted.ok());
  http::ServerOptions ServerOpts;
  Expected<std::unique_ptr<http::Server>> Srv = http::Server::start(
      ServerOpts,
      [&Faulted](const http::Request &Req) { return Faulted.value()->handle(Req); });
  ASSERT_TRUE(Srv.ok()) << Srv.status().toString();

  ASSERT_TRUE(fault::configure("ingest:0.45,shed:0.2", 1234));
  PushOptions Opts;
  Opts.Endpoint.Host = "127.0.0.1";
  Opts.Endpoint.Port = Srv.value()->port();
  Opts.Retry.MaxRetries = 16;
  Opts.Retry.Seed = 7;
  unsigned TotalAttempts = 0, SleepCalls = 0;
  Opts.Sleep = [&SleepCalls](unsigned) { ++SleepCalls; }; // No real waiting.

  // Trace the whole drill: client attempt spans and server request spans
  // land in the same in-process ring, so one trace id must stitch every
  // retry of a push to its server-side handling.
  TraceCapture Capture;

  std::vector<std::pair<std::string, unsigned>> PushTraces; // (id, attempts)
  for (const std::string &Path : Files) {
    Expected<PushOutcome> Out = pushProfileFile(Path, Opts);
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    EXPECT_FALSE(Out->Deduplicated);
    TotalAttempts += Out->Attempts;
    PushTraces.emplace_back(Out->TraceId, Out->Attempts);
  }
  // A retry of content that already landed is acknowledged, not re-merged.
  Expected<PushOutcome> Replay = pushProfileFile(Files[0], Opts);
  ASSERT_TRUE(Replay.ok()) << Replay.status().toString();
  EXPECT_TRUE(Replay->Deduplicated);
  TotalAttempts += Replay->Attempts;
  PushTraces.emplace_back(Replay->TraceId, Replay->Attempts);
  fault::reset();

  std::vector<tel::TraceEvent> Events = Capture.take();
  // Each push minted one 32-hex trace id, distinct from its siblings.
  for (unsigned I = 0; I < PushTraces.size(); ++I) {
    ASSERT_EQ(PushTraces[I].first.size(), 32u);
    for (unsigned J = I + 1; J < PushTraces.size(); ++J)
      EXPECT_NE(PushTraces[I].first, PushTraces[J].first);
  }
  auto argValue = [](const tel::TraceEvent &E, const char *Key) {
    for (const auto &[K, V] : E.Args)
      if (K == Key)
        return V;
    return std::string();
  };
  for (const auto &[TraceId, Attempts] : PushTraces) {
    unsigned AttemptSpans = 0, ServerSpans = 0;
    for (const tel::TraceEvent &E : Events) {
      if (argValue(E, "trace_id") != TraceId)
        continue;
      AttemptSpans += E.Name == "push.attempt";
      ServerSpans += E.Name == "serve.request";
    }
    // Every client attempt — including the faulted ones — carries the one
    // trace id, and the server saw at least the final successful attempt
    // under that same id.
    EXPECT_EQ(AttemptSpans, Attempts) << TraceId;
    EXPECT_GE(ServerSpans, 1u) << TraceId;
  }

  // The faults actually bit (the seed guarantees it), the retries absorbed
  // them (exactly one backoff sleep per retry), and not one profile merged
  // twice.
  EXPECT_GT(TotalAttempts, 4u);
  EXPECT_EQ(SleepCalls, TotalAttempts - 4u);
  EXPECT_EQ(Faulted.value()->ingestCount(), 3u);

  Expected<http::ClientResponse> FaultedView =
      http::request("127.0.0.1", Srv.value()->port(), "GET",
                    "/profile?format=collapsed");
  ASSERT_TRUE(FaultedView.ok());
  ASSERT_EQ(FaultedView->Code, 200);
  Srv.value()->stop();

  // The oracle: one clean, fault-free ingest of each file.
  Expected<std::unique_ptr<ProfileService>> Clean =
      ProfileService::create(SvcOpts);
  ASSERT_TRUE(Clean.ok());
  for (const std::string &Path : Files) {
    std::string Body;
    ASSERT_TRUE(readFileToString(Path, Body));
    TraceMeta Meta;
    Expected<DictionaryCompressor> D = readTrace(Body, &Meta);
    ASSERT_TRUE(D.ok());
    ASSERT_TRUE(Clean.value()->ingest(D.value(), "", Meta.Source).ok());
  }
  http::Request ViewReq;
  ViewReq.Method = "GET";
  ViewReq.Path = "/profile";
  ViewReq.Query["format"] = "collapsed";
  http::Response CleanView = Clean.value()->handle(ViewReq);
  ASSERT_EQ(CleanView.Code, 200);

  // Bit-identical merged profiles: retries + dedup changed nothing.
  EXPECT_EQ(FaultedView->Body, CleanView.Body);
  fs::remove_all(Dir);
}

// --- The same property through the real binaries. -----------------------

TEST(StoreChaos, CliPushRetriesAgainstFaultInjectedServer) {
  std::string StoreDir = freshDir("clistore");
  std::string WorkDir = freshDir("clipush");
  fs::create_directories(WorkDir);
  std::string ProfilePath = WorkDir + "/edge.prof";
  ASSERT_TRUE(writeStringToFile(ProfilePath, sampleTrace(33)));
  std::string AccessLog = WorkDir + "/access.log";
  std::string ServeTrace = WorkDir + "/serve-trace.json";

  pid_t Pid = -1;
  uint16_t Port = 0;
  int OutFd = -1;
  ASSERT_TRUE(launchServer(Pid, Port, OutFd,
                           {"--store=" + StoreDir, "--access-log=" + AccessLog,
                            "--trace-out=" + ServeTrace},
                           "ingest:0.3"));

  // One `kremlin push` of the profile; returns its output, and the trace
  // id it announced through \p TraceId.
  auto Push = [&](const std::string &Tag, std::string &TraceId) {
    std::string OutPath = WorkDir + "/" + Tag + ".out";
    std::string Cmd = std::string(KREMLIN_TOOL_PATH) + " push " +
                      ProfilePath + " --url=http://127.0.0.1:" +
                      std::to_string(Port) +
                      " --retries=10 --timeout-ms=5000 --trace-out=" +
                      WorkDir + "/" + Tag + "-trace.json > " + OutPath +
                      " 2>&1";
    int Rc = std::system(Cmd.c_str());
    std::string Output;
    readFileToString(OutPath, Output);
    EXPECT_TRUE(WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0) << Output;
    expectNoSanitizerReport(Output);
    // The pushed line ends "..., trace <32-hex id>)".
    for (size_t At = Output.find("trace "); At != std::string::npos;
         At = Output.find("trace ", At + 1))
      if (isTraceId(Output.substr(At + 6, 32)) &&
          Output.compare(At + 38, 1, ")") == 0)
        TraceId = Output.substr(At + 6, 32);
    return Output;
  };
  std::string PushId, ReplayId;
  std::string Output = Push("push", PushId);
  EXPECT_NE(Output.find("pushed"), std::string::npos) << Output;
  // The push announces the trace id that stitched its attempts together.
  EXPECT_NE(Output.find("trace "), std::string::npos) << Output;
  EXPECT_TRUE(isTraceId(PushId)) << Output;
  // A replayed push is acknowledged through its idempotency key, not
  // merged twice.
  std::string Replay = Push("replay", ReplayId);
  EXPECT_NE(Replay.find("deduplicated"), std::string::npos) << Replay;
  EXPECT_TRUE(isTraceId(ReplayId)) << Replay;
  EXPECT_NE(PushId, ReplayId);

  // `kremlin top --once` snapshots the live endpoint's metrics.
  std::string TopPath = WorkDir + "/top.out";
  std::string TopCmd = std::string(KREMLIN_TOOL_PATH) +
                       " top --url=http://127.0.0.1:" + std::to_string(Port) +
                       " --once > " + TopPath + " 2>&1";
  int TopRc = std::system(TopCmd.c_str());
  std::string TopOut;
  readFileToString(TopPath, TopOut);
  ASSERT_TRUE(WIFEXITED(TopRc));
  EXPECT_EQ(WEXITSTATUS(TopRc), 0) << TopOut;
  EXPECT_NE(TopOut.find("kremlin top:"), std::string::npos) << TopOut;
  EXPECT_NE(TopOut.find("ingest"), std::string::npos) << TopOut;
  EXPECT_NE(TopOut.find("queue wait:"), std::string::npos) << TopOut;

  // A live Prometheus scrape of the same server.
  Expected<http::ClientResponse> Prom = http::request(
      "127.0.0.1", Port, "GET", "/metrics?format=prometheus");
  ASSERT_TRUE(Prom.ok()) << Prom.status().toString();
  ASSERT_EQ(Prom->Code, 200) << Prom->Body;
  expectWellFormedPrometheus(Prom->Body);

  // The push landed exactly once, durably.
  Expected<http::ClientResponse> Health =
      http::request("127.0.0.1", Port, "GET", "/healthz");
  ASSERT_TRUE(Health.ok());
  EXPECT_EQ(Health->Code, 200);
  ASSERT_EQ(kill(Pid, SIGTERM), 0);
  std::string ServeOut = drain(OutFd);
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  EXPECT_TRUE(WIFEXITED(WaitStatus));
  EXPECT_EQ(WEXITSTATUS(WaitStatus), 0) << ServeOut;
  expectNoSanitizerReport(ServeOut);

  Expected<ProfileStore> Store = ProfileStore::open(StoreDir);
  ASSERT_TRUE(Store.ok()) << Store.status().toString();
  ASSERT_EQ(Store.value().entries().size(), 1u);
  EXPECT_EQ(Store.value().entries()[0].Name, "edge");
  EXPECT_FALSE(Store.value().recovery().dirty());

  // One trace id per push, on both sides of the wire: in the client's
  // attempt spans and in the server's request spans.
  std::set<std::string> Served = spanTraceIds(ServeTrace, "serve.request");
  for (const auto &[Tag, Id] :
       {std::pair<std::string, std::string>{"push", PushId},
        {"replay", ReplayId}}) {
    EXPECT_TRUE(spanTraceIds(WorkDir + "/" + Tag + "-trace.json",
                             "push.attempt")
                    .count(Id))
        << Tag << " " << Id << " missing from client push.attempt spans";
    EXPECT_TRUE(Served.count(Id))
        << Tag << " " << Id << " missing from server serve.request spans";
  }

  // The access log: JSON lines with the documented schema.
  std::string Log;
  ASSERT_TRUE(readFileToString(AccessLog, Log));
  unsigned Lines = 0;
  for (const std::string &Line : splitString(Log, '\n')) {
    if (Line.empty())
      continue;
    ++Lines;
    JsonValue Entry;
    ASSERT_TRUE(JsonValue::parse(Line, Entry)) << Line;
    for (const char *Key :
         {"ts_us", "trace_id", "method", "path", "status", "bytes_in",
          "bytes_out", "queue_wait_ms", "handler_ms", "dedup"})
      EXPECT_NE(Entry.get(Key), nullptr) << Key << " missing: " << Line;
    const JsonValue *Id = Entry.get("trace_id");
    EXPECT_TRUE(Id && isTraceId(Id->asString())) << Line;
  }
  EXPECT_GE(Lines, 3u) << Log;

  fs::remove_all(StoreDir);
  fs::remove_all(WorkDir);
}

} // namespace

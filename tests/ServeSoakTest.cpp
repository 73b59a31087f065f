//===- tests/ServeSoakTest.cpp - kremlin serve under concurrency ----------===//
//
// The CI soak drill (ctest label: stress): launches the real `kremlin
// serve` binary on a kernel-assigned port, hammers it with 32 concurrent
// clients mixing ingests and view fetches, and asserts zero 5xx responses,
// a valid merged speedscope document, and exact telemetry accounting
// (serve.requests == ingests + hits + misses + healthz + metrics +
// errors), then shuts it down with SIGTERM and expects a clean drain.
//
//===----------------------------------------------------------------------===//

#include "compress/TraceIO.h"
#include "support/Http.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace kremlin;

namespace {

/// A small synthetic profile upload body.
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
  Meta.Source = "soak";
  return writeTrace(Dict, Meta);
}

/// Reads the "Metric Value" table served by /metrics back into numbers.
uint64_t metricFromTable(const std::string &Table, const std::string &Name) {
  size_t Pos = 0;
  while (Pos < Table.size()) {
    size_t End = Table.find('\n', Pos);
    if (End == std::string::npos)
      End = Table.size();
    std::string Line = Table.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t NamePos = Line.find(Name);
    if (NamePos == std::string::npos ||
        Line.find_first_not_of(' ') != NamePos ||
        (Line.size() > NamePos + Name.size() &&
         Line[NamePos + Name.size()] != ' '))
      continue;
    size_t ValPos = Line.find_last_of(' ');
    return std::strtoull(Line.c_str() + ValPos + 1, nullptr, 10);
  }
  ADD_FAILURE() << "metric " << Name << " not in table:\n" << Table;
  return 0;
}

/// Spawns `kremlin serve --port=0`, parses the announced port from its
/// stdout, and reports the child pid. \p OutFd stays open so the child's
/// post-SIGTERM drain summary has somewhere to go (a closed pipe would
/// turn that printf into a fatal SIGPIPE); the caller closes it after
/// waitpid.
bool launchServer(pid_t &Pid, uint16_t &Port, int &OutFd,
                  const char *FaultSpec = nullptr) {
  int Out[2];
  if (pipe(Out) != 0)
    return false;
  Pid = fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    dup2(Out[1], STDOUT_FILENO);
    close(Out[0]);
    close(Out[1]);
    if (FaultSpec)
      setenv("KREMLIN_FAULT", FaultSpec, 1);
    execl(KREMLIN_TOOL_PATH, KREMLIN_TOOL_PATH, "serve", "--port=0",
          "--threads=8", static_cast<char *>(nullptr));
    _exit(127);
  }
  close(Out[1]);

  // The announce line is flushed before the server blocks in sigwait.
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
  if (At == std::string::npos)
    return false;
  Port = static_cast<uint16_t>(
      std::strtoul(Announce.c_str() + At + Needle.size(), nullptr, 10));
  return Port != 0;
}

TEST(ServeSoak, ThirtyTwoClientsZeroServerErrors) {
  pid_t Pid = -1;
  uint16_t Port = 0;
  int OutFd = -1;
  ASSERT_TRUE(launchServer(Pid, Port, OutFd));

  // One synchronous ingest so every view has data from the first fetch.
  Expected<http::ClientResponse> Seed = http::request(
      "127.0.0.1", Port, "POST", "/ingest", sampleTrace(8));
  ASSERT_TRUE(Seed.ok()) << Seed.status().toString();
  ASSERT_EQ(Seed->Code, 200) << Seed->Body;

  constexpr unsigned NumClients = 32;
  constexpr unsigned RequestsEach = 12;
  std::atomic<unsigned> ServerErrors{0}, TransportErrors{0}, Done{0};
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < NumClients; ++I)
    Clients.emplace_back([I, Port, &ServerErrors, &TransportErrors, &Done] {
      for (unsigned R = 0; R < RequestsEach; ++R) {
        Expected<http::ClientResponse> Resp = [&]() {
          switch ((I + R) % 6) {
          case 0:
            return http::request("127.0.0.1", Port, "POST", "/ingest",
                                 sampleTrace(8 + (I * RequestsEach + R) % 5));
          case 1:
            return http::request("127.0.0.1", Port, "GET",
                                 "/profile?format=speedscope");
          case 2:
            return http::request("127.0.0.1", Port, "GET",
                                 "/profile?format=tree");
          case 3:
            return http::request("127.0.0.1", Port, "GET",
                                 "/profile?format=plan");
          case 4:
            return http::request("127.0.0.1", Port, "GET", "/healthz");
          default:
            return http::request("127.0.0.1", Port, "GET",
                                 "/profile?format=collapsed");
          }
        }();
        if (!Resp.ok()) {
          ++TransportErrors;
          continue;
        }
        ++Done;
        if (Resp->Code >= 500)
          ++ServerErrors;
        else
          EXPECT_EQ(Resp->Code, 200) << Resp->Body;
      }
    });
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(ServerErrors.load(), 0u);
  EXPECT_EQ(TransportErrors.load(), 0u);
  EXPECT_EQ(Done.load(), NumClients * RequestsEach);

  // The merged profile is still a valid speedscope document.
  Expected<http::ClientResponse> Speed = http::request(
      "127.0.0.1", Port, "GET", "/profile?format=speedscope");
  ASSERT_TRUE(Speed.ok());
  ASSERT_EQ(Speed->Code, 200);
  JsonValue Doc;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(Speed->Body, Doc, &Error)) << Error;

  // Quiesced accounting: this /metrics response includes itself, so the
  // equation must balance exactly on the body we just received.
  Expected<http::ClientResponse> Metrics =
      http::request("127.0.0.1", Port, "GET", "/metrics");
  ASSERT_TRUE(Metrics.ok());
  ASSERT_EQ(Metrics->Code, 200);
  uint64_t Requests = metricFromTable(Metrics->Body, "serve.requests");
  uint64_t Ingests = metricFromTable(Metrics->Body, "serve.ingests");
  uint64_t Hits = metricFromTable(Metrics->Body, "serve.cache.hits");
  uint64_t Misses = metricFromTable(Metrics->Body, "serve.cache.misses");
  uint64_t Healthz = metricFromTable(Metrics->Body, "serve.healthz");
  uint64_t MetricsN = metricFromTable(Metrics->Body, "serve.metrics");
  uint64_t Errors = Metrics->Body.find("serve.errors") == std::string::npos
                        ? 0
                        : metricFromTable(Metrics->Body, "serve.errors");
  EXPECT_EQ(Requests, Ingests + Hits + Misses + Healthz + MetricsN + Errors);
  EXPECT_EQ(Errors, 0u);
  // Views repeat far more often than ingests invalidate: the cache must
  // actually be earning hits under load.
  EXPECT_GT(Hits, 0u);
  EXPECT_GE(Ingests, 1u);

  // SIGTERM drains in-flight work and exits 0.
  ASSERT_EQ(kill(Pid, SIGTERM), 0);
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  close(OutFd);
  EXPECT_TRUE(WIFEXITED(WaitStatus));
  EXPECT_EQ(WEXITSTATUS(WaitStatus), 0);
}

TEST(ServeSoak, ShedDrillKeepsCountersExactAndMetricsObservable) {
  // Same drill, but the child sheds ~15% of ingest/profile requests
  // (KREMLIN_FAULT=shed) with 503 + Retry-After. Clients treat a shed as
  // the backpressure signal it is; healthz and metrics stay exempt, so
  // the final accounting fetch cannot itself be shed — and the extended
  // equation must balance with the new serve.shed/serve.timeouts terms.
  pid_t Pid = -1;
  uint16_t Port = 0;
  int OutFd = -1;
  ASSERT_TRUE(launchServer(Pid, Port, OutFd, "shed:0.15"));

  std::atomic<unsigned> Shed{0}, ServerErrors{0}, TransportErrors{0};

  // One acked ingest before the clients start, as in the drill above: a
  // view that beat every ingest would get a 404, which counts as an error.
  // The seed ingest may itself be shed; retry it and count those sheds.
  bool Seeded = false;
  for (unsigned Attempt = 0; Attempt < 32 && !Seeded; ++Attempt) {
    Expected<http::ClientResponse> Seed = http::request(
        "127.0.0.1", Port, "POST", "/ingest", sampleTrace(8));
    ASSERT_TRUE(Seed.ok()) << Seed.status().toString();
    if (Seed->Code == 503) {
      EXPECT_GE(Seed->retryAfterSec(), 1u) << Seed->Body;
      ++Shed;
      continue;
    }
    ASSERT_EQ(Seed->Code, 200) << Seed->Body;
    Seeded = true;
  }
  ASSERT_TRUE(Seeded);

  constexpr unsigned NumClients = 16;
  constexpr unsigned RequestsEach = 12;
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < NumClients; ++I)
    Clients.emplace_back([I, Port, &Shed, &ServerErrors, &TransportErrors] {
      for (unsigned R = 0; R < RequestsEach; ++R) {
        Expected<http::ClientResponse> Resp = [&]() {
          switch ((I + R) % 4) {
          case 0:
            return http::request("127.0.0.1", Port, "POST", "/ingest",
                                 sampleTrace(8 + (I * RequestsEach + R) % 5));
          case 1:
            return http::request("127.0.0.1", Port, "GET",
                                 "/profile?format=tree");
          case 2:
            return http::request("127.0.0.1", Port, "GET", "/healthz");
          default:
            return http::request("127.0.0.1", Port, "GET",
                                 "/profile?format=collapsed");
          }
        }();
        if (!Resp.ok()) {
          ++TransportErrors;
          continue;
        }
        if (Resp->Code == 503) {
          // A shed must always carry its backoff hint.
          EXPECT_GE(Resp->retryAfterSec(), 1u) << Resp->Body;
          ++Shed;
        } else if (Resp->Code >= 500) {
          ++ServerErrors;
        } else {
          EXPECT_EQ(Resp->Code, 200) << Resp->Body;
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(TransportErrors.load(), 0u);
  EXPECT_EQ(ServerErrors.load(), 0u);
  EXPECT_GT(Shed.load(), 0u); // ~29 expected at p=0.15 over 192 requests.

  // healthz/metrics are exempt from the drill: under sustained shedding
  // the store stays observable.
  Expected<http::ClientResponse> Health =
      http::request("127.0.0.1", Port, "GET", "/healthz");
  ASSERT_TRUE(Health.ok());
  EXPECT_EQ(Health->Code, 200);

  Expected<http::ClientResponse> Metrics =
      http::request("127.0.0.1", Port, "GET", "/metrics");
  ASSERT_TRUE(Metrics.ok());
  ASSERT_EQ(Metrics->Code, 200);
  auto Metric = [&Metrics](const char *Name) -> uint64_t {
    return Metrics->Body.find(Name) == std::string::npos
               ? 0
               : metricFromTable(Metrics->Body, Name);
  };
  uint64_t Requests = Metric("serve.requests");
  uint64_t ShedN = Metric("serve.shed");
  EXPECT_EQ(ShedN, Shed.load());
  EXPECT_EQ(Requests, Metric("serve.ingests") + Metric("serve.cache.hits") +
                          Metric("serve.cache.misses") +
                          Metric("serve.healthz") + Metric("serve.metrics") +
                          Metric("serve.errors") + ShedN +
                          Metric("serve.timeouts"));
  EXPECT_EQ(Metric("serve.errors"), 0u); // Sheds are not errors.

  ASSERT_EQ(kill(Pid, SIGTERM), 0);
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  close(OutFd);
  EXPECT_TRUE(WIFEXITED(WaitStatus));
  EXPECT_EQ(WEXITSTATUS(WaitStatus), 0);
}

} // namespace

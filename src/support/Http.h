//===- support/Http.h - Embedded HTTP/1.1 server ----------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free HTTP/1.1 server for `kremlin serve`: a blocking
/// accept loop on a dedicated thread hands each connection to a
/// support/ThreadPool worker, which reads one request, invokes the
/// registered handler, writes the response, and closes ("Connection:
/// close" — fleet clients are short-lived uploaders/fetchers, so
/// keep-alive buys nothing and connection state stays trivial).
///
/// The request parser is exposed separately so it is unit-testable without
/// sockets. Budgets (header bytes, body bytes) are enforced while reading:
/// an oversized upload is answered with 413 before the body is buffered
/// past the limit, so a hostile client cannot balloon server memory.
/// Per-connection read/write deadlines answer a stalled (slowloris) client
/// with 408 and reclaim the worker; optional Admit/Release hooks let the
/// service layer bound the pending-request queue and shed on the accept
/// thread with 503 + Retry-After before a request is even read.
///
/// A matching blocking client (http::request) exists for tests and drills;
/// it speaks exactly the subset the server emits.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_HTTP_H
#define KREMLIN_SUPPORT_HTTP_H

#include "support/Status.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace kremlin::http {

/// One parsed request. Header names are lowercased; the target is split
/// into a percent-decoded path and query map.
struct Request {
  std::string Method;  ///< "GET", "POST", ... (uppercase as sent).
  std::string Target;  ///< Raw request target ("/profile?format=tree").
  std::string Path;    ///< Decoded path ("/profile").
  std::map<std::string, std::string> Query; ///< Decoded query parameters.
  std::vector<std::pair<std::string, std::string>> Headers;
  std::string Body;

  /// Trace context for this request. The server fills these before the
  /// handler runs: TraceId/ParentSpanId come from a well-formed inbound
  /// `traceparent` header, otherwise a fresh trace id is minted (and
  /// ParentSpanId stays empty). Malformed or oversized traceparent values
  /// are counted (http.traceparent_invalid) and ignored — the request is
  /// served under a fresh id, never refused.
  std::string TraceId;       ///< 32 lowercase hex chars, always set.
  std::string ParentSpanId;  ///< 16 hex chars when propagated, else empty.
  /// Microseconds this connection waited between accept(2) and a worker
  /// picking it up — the queue-wait component of request latency.
  uint64_t QueueWaitUs = 0;

  /// Case-insensitive header lookup (names are stored lowercased);
  /// nullptr when absent.
  const std::string *header(std::string_view Name) const;

  /// Query parameter with default.
  std::string query(const std::string &Key,
                    const std::string &Default = "") const {
    auto It = Query.find(Key);
    return It == Query.end() ? Default : It->second;
  }
};

/// The trace context the service layer should handle \p Req under: the
/// request's pre-filled TraceId/ParentSpanId when the transport set them,
/// else parsed from a `traceparent` header, else freshly minted. Exposed so
/// handler tests without sockets get the same behavior as the server path.
telemetry::TraceContext requestTraceContext(const Request &Req);

/// One response. The server adds Content-Length and Connection headers;
/// anything in Headers (e.g. Retry-After) is emitted verbatim before them.
struct Response {
  int Code = 200;
  std::string ContentType = "text/plain; charset=utf-8";
  std::vector<std::pair<std::string, std::string>> Headers;
  std::string Body;

  static Response text(int Code, std::string Body) {
    Response R;
    R.Code = Code;
    R.Body = std::move(Body);
    return R;
  }
  static Response json(int Code, std::string Body) {
    Response R = text(Code, std::move(Body));
    R.ContentType = "application/json";
    return R;
  }

  /// Copy of this response with one extra header appended.
  Response withHeader(std::string Name, std::string Value) const {
    Response R = *this;
    R.Headers.emplace_back(std::move(Name), std::move(Value));
    return R;
  }
  /// Copy with a `Retry-After: <Secs>` header — the backoff hint every
  /// overload (503) and rate-limit (429) response should carry so clients
  /// know how long to wait before retrying.
  Response withRetryAfter(unsigned Secs) const {
    return withHeader("Retry-After", std::to_string(Secs));
  }
};

/// Standard reason phrase for \p Code ("OK", "Not Found", ...).
const char *reasonPhrase(int Code);

/// Parses the request head (start line + headers, no body). \p Head spans
/// up to and excluding the blank line. Exposed for tests.
Expected<Request> parseRequestHead(std::string_view Head);

/// Percent-decodes \p Text ("+" also decodes to space, form-style).
std::string urlDecode(std::string_view Text);

/// Serializes \p R as a complete HTTP/1.1 message (status line, headers,
/// Content-Length, Connection: close, body).
std::string serializeResponse(const Response &R);

/// Server geometry and budgets.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 = kernel-assigned (port() tells).
  uint16_t Port = 0;
  /// Handler worker threads.
  unsigned Threads = 4;
  /// Reject request bodies larger than this with 413.
  size_t MaxBodyBytes = 64ull << 20;
  /// Reject request heads larger than this with 431.
  size_t MaxHeaderBytes = 16384;
  /// Per-connection read deadline in seconds: a client that stalls
  /// mid-request (slowloris) is answered 408 and dropped instead of
  /// wedging a worker indefinitely.
  unsigned RecvTimeoutSec = 10;
  /// Admission control, called on the accept thread before a connection
  /// is queued for a worker. Return false to shed: the server answers
  /// RejectResponse and closes without reading the request (the cheapest
  /// possible refusal — no parse, no worker). Release runs exactly once
  /// per admitted connection when its handling finishes, however it ends.
  std::function<bool()> Admit;
  std::function<void()> Release;
  /// Sent when Admit() returns false.
  Response RejectResponse =
      Response::text(503, "server overloaded\n").withRetryAfter(1);
  /// Called when a read deadline expires and the server answers 408, so
  /// the service layer can fold timeouts into its request accounting.
  std::function<void()> OnReadTimeout;
};

/// The embedded server. start() binds and begins accepting immediately;
/// stop() (or destruction) shuts the listener down and drains in-flight
/// handlers.
class Server {
public:
  using Handler = std::function<Response(const Request &)>;

  /// Binds 127.0.0.1:<Port> and starts the accept loop. IoError with the
  /// failing syscall's detail when the socket cannot be set up.
  static Expected<std::unique_ptr<Server>> start(ServerOptions Opts,
                                                 Handler Handle);

  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// The bound port (resolves 0 to the kernel's pick).
  uint16_t port() const { return BoundPort; }

  /// Blocks until stop() is called (from another thread or a signal
  /// handler path) — the `kremlin serve` foreground wait.
  void wait();

  /// Stops accepting, wakes the accept loop, and drains workers.
  /// Idempotent.
  void stop();

private:
  Server() = default;

  void acceptLoop();
  /// \p AcceptUs is the accept(2) timestamp; the gap to the worker picking
  /// the connection up becomes Request::QueueWaitUs.
  void handleConnection(int Fd, uint64_t AcceptUs);

  ServerOptions Opts;
  Handler Handle;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;
  std::unique_ptr<ThreadPool> Pool;
};

/// Blocking one-shot client response.
struct ClientResponse {
  int Code = 0;
  std::vector<std::pair<std::string, std::string>> Headers; ///< Lowercased.
  std::string Body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string *header(std::string_view Name) const;
  /// Parses a `Retry-After: <seconds>` header; 0 when absent/unparseable.
  unsigned retryAfterSec() const;
};

/// Performs one HTTP/1.1 request against \p Host:\p Port and reads the
/// full response (the server closes the connection). For tests, the soak
/// drill, `kremlin push`, and CLI health checks. \p ExtraHeaders are sent
/// verbatim (e.g. Idempotency-Key); \p TimeoutMs, when nonzero, bounds
/// each send/recv so a wedged server surfaces as IoError instead of a
/// hang.
Expected<ClientResponse>
request(const std::string &Host, uint16_t Port, const std::string &Method,
        const std::string &Target, const std::string &Body = "",
        const std::string &ContentType = "",
        const std::vector<std::pair<std::string, std::string>>
            &ExtraHeaders = {},
        unsigned TimeoutMs = 0);

} // namespace kremlin::http

#endif // KREMLIN_SUPPORT_HTTP_H

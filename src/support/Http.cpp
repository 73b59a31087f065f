//===- support/Http.cpp ---------------------------------------------------===//

#include "support/Http.h"

#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace kremlin;
using namespace kremlin::http;
namespace tel = kremlin::telemetry;

// --- Parsing ----------------------------------------------------------------

namespace {

/// listen(2) backlog.
constexpr int ListenBacklog = 128;

/// Per-connection write deadline in seconds: a client that accepts the
/// request but never drains the response releases its worker too.
constexpr unsigned SendTimeoutSec = 10;

/// Shared case-insensitive lookup over lowercased-name header lists.
const std::string *
findHeader(const std::vector<std::pair<std::string, std::string>> &Headers,
           std::string_view Name) {
  std::string Lower(Name);
  std::transform(Lower.begin(), Lower.end(), Lower.begin(),
                 [](unsigned char C) { return std::tolower(C); });
  for (const auto &[K, V] : Headers)
    if (K == Lower)
      return &V;
  return nullptr;
}

} // namespace

const std::string *Request::header(std::string_view Name) const {
  return findHeader(Headers, Name);
}

const std::string *ClientResponse::header(std::string_view Name) const {
  return findHeader(Headers, Name);
}

unsigned ClientResponse::retryAfterSec() const {
  const std::string *V = header("retry-after");
  return V ? static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10)) : 0;
}

tel::TraceContext http::requestTraceContext(const Request &Req) {
  // Transport already resolved it (server path re-entering via handler
  // helpers, or a test that pre-filled the fields).
  if (!Req.TraceId.empty())
    return {Req.TraceId, Req.ParentSpanId};
  if (const std::string *TP = Req.header("traceparent")) {
    tel::TraceContext Ctx;
    if (tel::parseTraceparent(*TP, Ctx))
      return Ctx;
    // Malformed/oversized/garbage header: count it and serve the request
    // under a fresh id — a bad client must not lose its own request.
    tel::Registry::global().counter("http.traceparent_invalid").add();
  }
  tel::TraceContext Fresh = tel::mintTraceContext();
  Fresh.SpanId.clear(); // No inbound parent span.
  return Fresh;
}

std::string http::urlDecode(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (size_t I = 0; I < Text.size(); ++I) {
    char C = Text[I];
    if (C == '+') {
      Out += ' ';
    } else if (C == '%' && I + 2 < Text.size() &&
               std::isxdigit(static_cast<unsigned char>(Text[I + 1])) &&
               std::isxdigit(static_cast<unsigned char>(Text[I + 2]))) {
      auto Hex = [](char H) {
        return H <= '9' ? H - '0' : (H | 0x20) - 'a' + 10;
      };
      Out += static_cast<char>(Hex(Text[I + 1]) * 16 + Hex(Text[I + 2]));
      I += 2;
    } else {
      Out += C;
    }
  }
  return Out;
}

const char *http::reasonPhrase(int Code) {
  switch (Code) {
  case 200:
    return "OK";
  case 201:
    return "Created";
  case 204:
    return "No Content";
  case 400:
    return "Bad Request";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 408:
    return "Request Timeout";
  case 409:
    return "Conflict";
  case 413:
    return "Payload Too Large";
  case 429:
    return "Too Many Requests";
  case 431:
    return "Request Header Fields Too Large";
  case 500:
    return "Internal Server Error";
  case 503:
    return "Service Unavailable";
  }
  return Code < 400 ? "OK" : "Error";
}

Expected<Request> http::parseRequestHead(std::string_view Head) {
  auto Bad = [](std::string Msg) {
    return Status::error(ErrorCode::DecodeError, std::move(Msg))
        .withStage("http-parse");
  };
  Request Req;
  size_t LineEnd = Head.find("\r\n");
  std::string_view StartLine =
      LineEnd == std::string_view::npos ? Head : Head.substr(0, LineEnd);
  size_t Sp1 = StartLine.find(' ');
  size_t Sp2 = StartLine.rfind(' ');
  if (Sp1 == std::string_view::npos || Sp2 == Sp1)
    return Bad("malformed request line");
  Req.Method = std::string(StartLine.substr(0, Sp1));
  Req.Target = std::string(StartLine.substr(Sp1 + 1, Sp2 - Sp1 - 1));
  std::string_view Proto = StartLine.substr(Sp2 + 1);
  if (Req.Method.empty() || Req.Target.empty() || Req.Target[0] != '/')
    return Bad("malformed request line");
  if (Proto.rfind("HTTP/1.", 0) != 0)
    return Bad("unsupported protocol '" + std::string(Proto) + "'");

  // Split target into decoded path + query parameters.
  std::string_view Target = Req.Target;
  size_t Q = Target.find('?');
  Req.Path = urlDecode(Target.substr(0, Q));
  if (Q != std::string_view::npos) {
    for (const std::string &Pair :
         splitString(std::string(Target.substr(Q + 1)), '&')) {
      if (Pair.empty())
        continue;
      size_t Eq = Pair.find('=');
      std::string Key = urlDecode(std::string_view(Pair).substr(0, Eq));
      std::string Val = Eq == std::string::npos
                            ? std::string()
                            : urlDecode(std::string_view(Pair).substr(Eq + 1));
      Req.Query[Key] = std::move(Val);
    }
  }

  // Header fields: "Name: value" lines, names lowercased.
  size_t Pos = LineEnd == std::string_view::npos ? Head.size() : LineEnd + 2;
  while (Pos < Head.size()) {
    size_t End = Head.find("\r\n", Pos);
    std::string_view Line = Head.substr(
        Pos, End == std::string_view::npos ? std::string_view::npos
                                           : End - Pos);
    Pos = End == std::string_view::npos ? Head.size() : End + 2;
    if (Line.empty())
      continue;
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      return Bad("malformed header line");
    std::string Name(trimString(Line.substr(0, Colon)));
    std::transform(Name.begin(), Name.end(), Name.begin(),
                   [](unsigned char C) { return std::tolower(C); });
    Req.Headers.emplace_back(std::move(Name),
                             std::string(trimString(Line.substr(Colon + 1))));
  }
  return Req;
}

std::string http::serializeResponse(const Response &R) {
  std::string Out = formatString("HTTP/1.1 %d %s\r\n", R.Code,
                                 reasonPhrase(R.Code));
  Out += "Content-Type: " + R.ContentType + "\r\n";
  for (const auto &[Name, Value] : R.Headers)
    Out += Name + ": " + Value + "\r\n";
  Out += formatString("Content-Length: %zu\r\n", R.Body.size());
  Out += "Connection: close\r\n\r\n";
  Out += R.Body;
  return Out;
}

// --- Socket helpers ---------------------------------------------------------

namespace {

/// Sends the whole buffer; false on any socket error.
bool sendAll(int Fd, std::string_view Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

void answer(int Fd, const Response &R) {
  sendAll(Fd, serializeResponse(R));
}

} // namespace

// --- Server -----------------------------------------------------------------

Expected<std::unique_ptr<Server>> Server::start(ServerOptions Opts,
                                                Handler Handle) {
  auto Fail = [](const char *What) {
    return Status::error(ErrorCode::IoError,
                         formatString("%s: %s", What, std::strerror(errno)))
        .withStage("http-listen");
  };
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Opts.Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Status St = Fail("bind");
    ::close(Fd);
    return St;
  }
  if (::listen(Fd, ListenBacklog) != 0) {
    Status St = Fail("listen");
    ::close(Fd);
    return St;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    Status St = Fail("getsockname");
    ::close(Fd);
    return St;
  }

  std::unique_ptr<Server> S(new Server());
  S->Opts = Opts;
  S->Handle = std::move(Handle);
  S->ListenFd = Fd;
  S->BoundPort = ntohs(Addr.sin_port);
  S->Pool = std::make_unique<ThreadPool>(std::max(1u, Opts.Threads));
  S->Acceptor = std::thread([Srv = S.get()] { Srv->acceptLoop(); });
  return S;
}

Server::~Server() { stop(); }

void Server::wait() {
  // The accept loop ends only through stop(); joining it is the
  // foreground wait. stop() (from a signal/another thread) joins first,
  // so only wait when the thread is still ours to join.
  if (Acceptor.joinable())
    Acceptor.join();
}

void Server::stop() {
  if (Stopping.exchange(true))
    return;
  // Wake the blocking accept: shutdown() interrupts it on Linux; the
  // self-connect is the portable backup nudge.
  ::shutdown(ListenFd, SHUT_RDWR);
  int Nudge = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Nudge >= 0) {
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(BoundPort);
    ::connect(Nudge, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    ::close(Nudge);
  }
  if (Acceptor.joinable() &&
      Acceptor.get_id() != std::this_thread::get_id())
    Acceptor.join();
  Pool->wait();
  ::close(ListenFd);
  ListenFd = -1;
}

void Server::acceptLoop() {
  while (!Stopping.load(std::memory_order_relaxed)) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (Stopping.load(std::memory_order_relaxed) || errno == EBADF ||
          errno == EINVAL)
        break;
      continue; // EINTR/ECONNABORTED: keep accepting.
    }
    if (Stopping.load(std::memory_order_relaxed)) {
      ::close(Fd);
      break;
    }
    tel::Registry::global().counter("http.connections").add();
    // Admission runs here, on the accept thread, so an overloaded server
    // sheds before the connection consumes a queue slot or a worker: the
    // reject response is a few hundred bytes, which the socket send buffer
    // absorbs without blocking the accept loop.
    if (Opts.Admit && !Opts.Admit()) {
      tel::Registry::global().counter("http.shed").add();
      answer(Fd, Opts.RejectResponse);
      // The client is still mid-send: closing with its request unread
      // would RST the connection and discard the 503 we just wrote.
      // Half-close our side and drain (briefly, boundedly — this runs on
      // the accept thread) until the client sees the response and hangs
      // up, then close for real.
      ::shutdown(Fd, SHUT_WR);
      timeval Tv{};
      Tv.tv_sec = 1;
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
      char Scratch[4096];
      for (unsigned I = 0; I < 16; ++I)
        if (::recv(Fd, Scratch, sizeof(Scratch), 0) <= 0)
          break;
      ::close(Fd);
      continue;
    }
    uint64_t AcceptUs = tel::nowUs();
    Pool->submit([this, Fd, AcceptUs] { handleConnection(Fd, AcceptUs); });
  }
}

void Server::handleConnection(int Fd, uint64_t AcceptUs) {
  // Time spent between accept(2) and this worker picking the connection
  // up — the queue-wait the service layer folds into request latency.
  uint64_t QueueWaitUs = tel::nowUs() - AcceptUs;
  // Pair every admitted connection with exactly one Release, however the
  // handling ends (response, timeout, disconnect, handler exception).
  struct ReleaseGuard {
    const std::function<void()> &Fn;
    ~ReleaseGuard() {
      if (Fn)
        Fn();
    }
  } Guard{Opts.Release};

  timeval Timeout{};
  Timeout.tv_sec = Opts.RecvTimeoutSec;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  timeval SendTimeout{};
  SendTimeout.tv_sec = SendTimeoutSec;
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout, sizeof(SendTimeout));

  // A recv that fails with EAGAIN/EWOULDBLOCK hit the read deadline: the
  // client is stalling mid-request (slowloris or a dead peer). Answer 408
  // and reclaim the worker; a clean disconnect (recv == 0) stays silent.
  // TimeoutTraceId is filled once the head has parsed, so a mid-body 408
  // still lands in the trace under the request's id.
  std::string TimeoutTraceId;
  auto TimedOut = [&Fd, &TimeoutTraceId, this]() {
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return false;
    tel::Registry::global().counter("http.timeouts").add();
    if (!TimeoutTraceId.empty())
      tel::instantEvent("http.timeout", "serve",
                        {{"trace_id", TimeoutTraceId}});
    if (Opts.OnReadTimeout)
      Opts.OnReadTimeout();
    answer(Fd, Response::text(408, "request read deadline exceeded\n"));
    return true;
  };

  // Read until the blank line ending the head, within the header budget.
  std::string Buf;
  size_t HeadEnd = std::string::npos;
  char Chunk[4096];
  while (HeadEnd == std::string::npos) {
    if (Buf.size() > Opts.MaxHeaderBytes) {
      answer(Fd, Response::text(431, "request head too large\n"));
      ::close(Fd);
      return;
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0) {
      if (N < 0)
        TimedOut();
      ::close(Fd); // Client went away (or the stop() nudge connection).
      return;
    }
    Buf.append(Chunk, static_cast<size_t>(N));
    HeadEnd = Buf.find("\r\n\r\n");
  }
  // The in-loop check only catches heads still incomplete at the budget;
  // one that arrives whole in a single read must be rejected too.
  if (HeadEnd > Opts.MaxHeaderBytes) {
    answer(Fd, Response::text(431, "request head too large\n"));
    ::close(Fd);
    return;
  }

  Expected<Request> Parsed = parseRequestHead(
      std::string_view(Buf).substr(0, HeadEnd));
  if (!Parsed.ok()) {
    tel::Registry::global().counter("http.parse_errors").add();
    answer(Fd, Response::text(400, Parsed.status().toString() + "\n"));
    ::close(Fd);
    return;
  }
  Request Req = Parsed.takeValue();
  Req.QueueWaitUs = QueueWaitUs;
  tel::TraceContext Ctx = requestTraceContext(Req);
  Req.TraceId = Ctx.TraceId;
  Req.ParentSpanId = Ctx.SpanId;
  TimeoutTraceId = Req.TraceId;

  // Body: exactly Content-Length bytes, within the body budget.
  size_t BodyLen = 0;
  if (const std::string *CL = Req.header("content-length"))
    BodyLen = static_cast<size_t>(std::strtoull(CL->c_str(), nullptr, 10));
  if (BodyLen > Opts.MaxBodyBytes) {
    answer(Fd, Response::text(413, formatString(
                                       "request body (%zu bytes) exceeds "
                                       "the %zu-byte limit\n",
                                       BodyLen, Opts.MaxBodyBytes)));
    ::close(Fd);
    return;
  }
  Req.Body = Buf.substr(HeadEnd + 4);
  while (Req.Body.size() < BodyLen) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0) {
      if (N < 0)
        TimedOut();
      ::close(Fd);
      return;
    }
    Req.Body.append(Chunk, static_cast<size_t>(N));
  }
  Req.Body.resize(BodyLen);

  Response Resp;
  try {
    Resp = Handle(Req);
  } catch (const std::exception &E) {
    // A handler bug must not take the fleet endpoint down with it.
    tel::Registry::global().counter("http.handler_exceptions").add();
    Resp = Response::text(500, formatString("internal error: %s\n",
                                            E.what()));
  }
  answer(Fd, Resp);
  ::close(Fd);
}

// --- Client -----------------------------------------------------------------

Expected<ClientResponse> http::request(
    const std::string &Host, uint16_t Port, const std::string &Method,
    const std::string &Target, const std::string &Body,
    const std::string &ContentType,
    const std::vector<std::pair<std::string, std::string>> &ExtraHeaders,
    unsigned TimeoutMs) {
  auto Fail = [](const char *What) {
    return Status::error(ErrorCode::IoError,
                         formatString("%s: %s", What, std::strerror(errno)))
        .withStage("http-client");
  };
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Fail("socket");
  if (TimeoutMs > 0) {
    timeval Timeout{};
    Timeout.tv_sec = TimeoutMs / 1000;
    Timeout.tv_usec = static_cast<suseconds_t>(TimeoutMs % 1000) * 1000;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    ::close(Fd);
    return Status::error(ErrorCode::InvalidArgument,
                         "not an IPv4 address: " + Host)
        .withStage("http-client");
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Status St = Fail("connect");
    ::close(Fd);
    return St;
  }

  std::string Msg = Method + " " + Target + " HTTP/1.1\r\n";
  Msg += "Host: " + Host + "\r\n";
  for (const auto &[Name, Value] : ExtraHeaders)
    Msg += Name + ": " + Value + "\r\n";
  if (!Body.empty() || Method == "POST") {
    Msg += formatString("Content-Length: %zu\r\n", Body.size());
    if (!ContentType.empty())
      Msg += "Content-Type: " + ContentType + "\r\n";
  }
  Msg += "Connection: close\r\n\r\n";
  Msg += Body;
  if (!sendAll(Fd, Msg)) {
    Status St = Fail("send");
    ::close(Fd);
    return St;
  }

  // The server closes after one response: read to EOF.
  std::string Raw;
  char Chunk[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      Status St = Fail("recv");
      ::close(Fd);
      return St;
    }
    if (N == 0)
      break;
    Raw.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);

  size_t HeadEnd = Raw.find("\r\n\r\n");
  if (Raw.rfind("HTTP/1.", 0) != 0 || HeadEnd == std::string::npos)
    return Status::error(ErrorCode::DecodeError, "malformed HTTP response")
        .withStage("http-client");
  ClientResponse Resp;
  size_t CodePos = Raw.find(' ');
  Resp.Code = static_cast<int>(std::strtol(Raw.c_str() + CodePos + 1,
                                           nullptr, 10));
  size_t Pos = Raw.find("\r\n") + 2;
  while (Pos < HeadEnd) {
    size_t End = Raw.find("\r\n", Pos);
    std::string_view Line = std::string_view(Raw).substr(Pos, End - Pos);
    Pos = End + 2;
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      continue;
    std::string Name(trimString(Line.substr(0, Colon)));
    std::transform(Name.begin(), Name.end(), Name.begin(),
                   [](unsigned char C) { return std::tolower(C); });
    Resp.Headers.emplace_back(std::move(Name),
                              std::string(trimString(Line.substr(Colon + 1))));
  }
  Resp.Body = Raw.substr(HeadEnd + 4);
  return Resp;
}

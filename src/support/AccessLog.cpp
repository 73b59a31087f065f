//===- support/AccessLog.cpp - Bounded JSON-lines access log --------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/AccessLog.h"

#include "support/Json.h"
#include "support/Telemetry.h"

#include <cstdio>

namespace tel = kremlin::telemetry;

namespace kremlin {

namespace {

FILE *asFile(void *P) { return static_cast<FILE *>(P); }

/// The buffer flushes to disk once it holds this many bytes.
constexpr size_t FlushBytes = 32 * 1024;

} // namespace

Expected<std::unique_ptr<AccessLog>> AccessLog::open(std::string Path) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return Status::error(ErrorCode::IoError,
                         "cannot open access log '" + Path + "'");
  auto Log = std::unique_ptr<AccessLog>(new AccessLog());
  Log->Path = std::move(Path);
  Log->File = F;
  Log->Buf.reserve(FlushBytes + 512);
  return Log;
}

AccessLog::~AccessLog() { (void)close(); }

void AccessLog::append(const AccessLogEntry &E) {
  std::string Line;
  Line.reserve(256);
  Line += "{\"ts_us\": ";
  Line += std::to_string(tel::nowUs());
  Line += ", \"trace_id\": ";
  appendJsonString(Line, E.TraceId);
  Line += ", \"method\": ";
  appendJsonString(Line, E.Method);
  Line += ", \"path\": ";
  appendJsonString(Line, E.Path);
  Line += ", \"status\": ";
  Line += std::to_string(E.Status);
  Line += ", \"bytes_in\": ";
  Line += std::to_string(E.BytesIn);
  Line += ", \"bytes_out\": ";
  Line += std::to_string(E.BytesOut);
  char MsBuf[64];
  std::snprintf(MsBuf, sizeof(MsBuf), ", \"queue_wait_ms\": %.3f",
                static_cast<double>(E.QueueWaitUs) / 1000.0);
  Line += MsBuf;
  std::snprintf(MsBuf, sizeof(MsBuf), ", \"handler_ms\": %.3f",
                static_cast<double>(E.HandlerUs) / 1000.0);
  Line += MsBuf;
  Line += ", \"dedup\": ";
  appendJsonString(Line, E.Dedup);
  Line += "}\n";

  std::lock_guard<std::mutex> Lock(Mutex);
  if (Closed)
    return;
  Buf += Line;
  tel::Registry::global().counter("serve.access_log.lines").add(1);
  flushLocked(/*Force=*/false);
}

void AccessLog::flushLocked(bool Force) {
  if (Buf.empty() || (!Force && Buf.size() < FlushBytes))
    return;
  size_t Written = std::fwrite(Buf.data(), 1, Buf.size(), asFile(File));
  if (Written != Buf.size()) {
    tel::Registry::global().counter("serve.access_log.write_errors").add(1);
    if (CloseStatus.ok())
      CloseStatus = Status::error(ErrorCode::IoError,
                                  "short write to access log '" + Path + "'");
  } else {
    tel::Registry::global().counter("serve.access_log.flushes").add(1);
    tel::Registry::global().counter("serve.access_log.bytes").add(Written);
  }
  Buf.clear();
}

Status AccessLog::close() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Closed)
    return CloseStatus;
  flushLocked(/*Force=*/true);
  if (std::fclose(asFile(File)) != 0 && CloseStatus.ok())
    CloseStatus = Status::error(ErrorCode::IoError,
                                "cannot close access log '" + Path + "'");
  File = nullptr;
  Closed = true;
  return CloseStatus;
}

} // namespace kremlin

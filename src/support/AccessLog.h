//===- support/AccessLog.h - Bounded JSON-lines access log ------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `kremlin serve --access-log=` sink: one JSON object per request,
/// one line per object, written through the same bounded-buffer idiom as
/// the telemetry FileTraceSink so a slow disk never blocks a handler for
/// more than one amortized fwrite. append() serializes the entry into an
/// in-memory buffer under a short mutex; the buffer flushes to disk every
/// 32 KiB, and close() (or destruction) flushes the tail. Write
/// failures are counted (serve.access_log.write_errors) and reported by
/// close(), never surfaced to the request path — losing a log line must
/// not fail an upload.
///
/// Line schema (all fields always present):
///   {"ts_us": N, "trace_id": "...", "method": "GET", "path": "/ingest",
///    "status": 200, "bytes_in": N, "bytes_out": N, "queue_wait_ms": F,
///    "handler_ms": F, "dedup": "none|merged|deduplicated"}
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_ACCESSLOG_H
#define KREMLIN_SUPPORT_ACCESSLOG_H

#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace kremlin {

/// One request's access-log record.
struct AccessLogEntry {
  std::string TraceId;
  std::string Method;
  std::string Path;
  int Status = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t QueueWaitUs = 0;
  uint64_t HandlerUs = 0;
  /// Idempotency-key outcome: "none" (no key sent), "merged" (key
  /// recorded, profile merged), or "deduplicated" (replay acknowledged).
  std::string Dedup = "none";
};

/// Thread-safe buffered JSON-lines writer.
class AccessLog {
public:
  /// Opens \p Path for writing (truncating). IoError when it cannot be
  /// created.
  static Expected<std::unique_ptr<AccessLog>> open(std::string Path);

  ~AccessLog();
  AccessLog(const AccessLog &) = delete;
  AccessLog &operator=(const AccessLog &) = delete;

  /// Serializes \p E as one JSON line into the buffer; flushes to disk
  /// when the buffer exceeds the flush threshold. Never throws, never
  /// blocks beyond the buffer mutex + one amortized fwrite.
  void append(const AccessLogEntry &E);

  /// Flushes the tail and closes the file. Idempotent; returns the first
  /// write error seen, if any.
  Status close();

  const std::string &path() const { return Path; }

private:
  AccessLog() = default;

  /// Flushes under the caller's lock when forced or over threshold.
  void flushLocked(bool Force);

  std::mutex Mutex;
  std::string Path;
  void *File = nullptr; ///< std::FILE*, opaque to spare the include.
  std::string Buf;
  bool Closed = false;
  Status CloseStatus;
};

} // namespace kremlin

#endif // KREMLIN_SUPPORT_ACCESSLOG_H

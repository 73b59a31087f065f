//===- driver/Cli.h - Flag tables and the kremlin subcommands ---*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line surface of `kremlin` and `kremlin-bench`. Every entry
/// point declares its flags as one table of rows (name, value kind, help,
/// destination); one parser reads the tables and renders `--help` from
/// them, so the accepted flags and the documented flags cannot drift.
/// Rows several subcommands accept (the source, the telemetry outputs,
/// the profile-size budget) are declared here once.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_DRIVER_CLI_H
#define KREMLIN_DRIVER_CLI_H

#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace kremlin::cli {

using Args = std::vector<std::string>;

/// Applies a value no built-in kind expresses. A switch's setter gets "".
using Setter = std::function<Status(const std::string &Value)>;

/// A whole count of MiB, stored as bytes.
struct MiB {
  uint64_t *Bytes;
};

/// Where a flag's value goes. The alternative is the flag's value kind:
///   bool *                      switch (no value); set to true
///   std::string *               text, stored verbatim
///   std::vector<std::string> *  comma-separated list, empty items dropped
///   unsigned *, uint16_t *, size_t *, MiB
///                               whole decimal number that fits the type
///   double *                    finite number (1e9, 0.02, -1)
///   Setter                      anything else
using Dest = std::variant<bool *, std::string *, std::vector<std::string> *,
                          unsigned *, uint16_t *, size_t *, MiB, double *,
                          Setter>;

/// One row of a flag table.
struct Flag {
  std::string Name;  ///< "--min-sp"
  std::string Value; ///< Help placeholder ("<f>"); empty for a switch.
  std::string Help;  ///< One sentence; the help renderer wraps it.
  Dest To;
};

/// One entry point's command line.
struct Command {
  std::string Usage;       ///< "usage: ..." line(s), without the newline.
  std::vector<Flag> Flags;
  std::string Epilogue;    ///< Prose printed after the flag list.
  /// Receives each non-flag argument in order; unset: none accepted.
  Setter Positional = nullptr;
};

/// Prints \p C's help, rendered from its table, to stderr.
void printUsage(const Command &C);

/// Parses \p A against \p C's table, storing each value as it is met.
/// Returns the exit code when the entry point should stop: 0 after
/// `--help`/`-h`, 1 after an unknown option or a malformed value (logged
/// under \p Tag). nullopt means run.
std::optional<int> parse(const Command &C, const Args &A, const char *Tag);

/// Parses \p Text as a whole decimal number no larger than \p Max.
bool parseCount(const std::string &Text, uint64_t Max, uint64_t &Out);

/// Concatenates row groups into one table.
std::vector<Flag> join(std::initializer_list<std::vector<Flag>> Groups);

/// A switch that sets \p B to false (--no-static-analysis).
Setter unset(bool &B);

/// A positional handler that appends each argument to \p To.
Setter collect(std::vector<std::string> &To);

// --- Rows several entry points share. -----------------------------------

/// The program to profile: `<file> | --bench=<name> | --tracking`. Its
/// rows point into it, so it stays put.
struct SourceInput {
  SourceInput() = default;
  SourceInput(const SourceInput &) = delete;
  SourceInput &operator=(const SourceInput &) = delete;

  std::string Text, Name; ///< Name is empty until a source is given.
  /// The --bench= and --tracking rows.
  std::vector<Flag> flags();
  /// The positional handler: reads the named MiniC file.
  Setter readFile();
};

/// The telemetry outputs: --trace-out= and --metrics-out=. Its rows point
/// into it, so it stays put.
struct TelemetryOut {
  TelemetryOut() = default;
  TelemetryOut(const TelemetryOut &) = delete;
  TelemetryOut &operator=(const TelemetryOut &) = delete;

  std::string TracePath, MetricsPath;
  Flag traceOut();
  Flag metricsOut();
  /// Installs a streaming file sink when --trace-out= is set.
  bool start(const char *Tag) const;
  /// Closes the trace and writes the metrics snapshot, each announced on
  /// stdout after \p Announce ("kremlin serve: "). False on I/O failure.
  bool finish(const char *Tag, const char *Announce = "") const;
};

/// --max-profile-mb=: size budget for each profile read or upload.
Flag maxProfileMb(uint64_t &Bytes);

// --- Subcommands implemented outside KremlinTool.cpp. --------------------
// Each takes the arguments after the subcommand word.

int reportMain(const Args &A);
int mergeMain(const Args &A);
int diffMain(const Args &A);
int serveMain(const Args &A);
int pushMain(const Args &A);
int topMain(const Args &A);

} // namespace kremlin::cli

#endif // KREMLIN_DRIVER_CLI_H

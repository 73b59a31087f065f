//===- driver/Cli.cpp - Flag-table parser and shared rows -----------------===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"

#include "suite/PaperSuite.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

using namespace kremlin;
using namespace kremlin::cli;
namespace tel = kremlin::telemetry;

namespace {

/// Every entry point answers these with its help.
const char *const HelpFlags[] = {"--help", "-h"};

/// Stores \p Value into \p F's destination, checked against its kind.
Status store(const Flag &F, const std::string &Value) {
  auto Bad = [&](const std::string &Expected) {
    return Status::error(ErrorCode::InvalidArgument,
                         "invalid value '" + Value + "' for " + F.Name +
                             ": expected " + Expected);
  };
  auto Count = [&](uint64_t Max, uint64_t &Out) {
    return parseCount(Value, Max, Out)
               ? Status::success()
               : Bad(formatString("a whole number from 0 to %llu",
                                  static_cast<unsigned long long>(Max)));
  };
  return std::visit(
      [&](const auto &D) -> Status {
        using T = std::decay_t<decltype(D)>;
        if constexpr (std::is_same_v<T, Setter>) {
          return D(Value);
        } else if constexpr (std::is_same_v<T, bool *>) {
          *D = true;
        } else if constexpr (std::is_same_v<T, std::string *>) {
          *D = Value;
        } else if constexpr (std::is_same_v<T, std::vector<std::string> *>) {
          for (const std::string &Item : splitString(Value, ','))
            if (!Item.empty())
              D->push_back(Item);
        } else if constexpr (std::is_same_v<T, MiB>) {
          uint64_t N = 0;
          if (Status St = Count(UINT64_MAX >> 20, N); !St.ok())
            return St;
          *D.Bytes = N << 20;
        } else if constexpr (std::is_same_v<T, double *>) {
          const char *End = Value.data() + Value.size();
          auto [Stop, Ec] = std::from_chars(Value.data(), End, *D);
          if (Ec != std::errc() || Stop != End || !std::isfinite(*D))
            return Bad("a finite number");
        } else { // unsigned *, uint16_t *, size_t *
          using N = std::remove_pointer_t<T>;
          uint64_t Parsed = 0;
          if (Status St = Count(std::numeric_limits<N>::max(), Parsed);
              !St.ok())
            return St;
          *D = static_cast<N>(Parsed);
        }
        return Status::success();
      },
      F.To);
}

} // namespace

bool cli::parseCount(const std::string &Text, uint64_t Max, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Stop == End && Out <= Max;
}

void cli::printUsage(const Command &C) {
  // Help starts in a fixed column and wraps at 79; a flag too wide for
  // the column gets its help on the next line.
  constexpr size_t Col = 28, Width = 79;
  std::string Out = C.Usage + "\n";
  for (const Flag &F : C.Flags) {
    std::string Line = "  " + F.Name + (F.Value.empty() ? "" : "=" + F.Value);
    if (Line.size() >= Col) {
      Out += Line + "\n";
      Line.clear();
    }
    Line.resize(Col, ' ');
    for (const std::string &Word : splitString(F.Help, ' ')) {
      if (Line.size() > Col && Line.size() + 1 + Word.size() > Width) {
        Out += Line + "\n";
        Line.assign(Col, ' ');
      }
      Line += (Line.size() > Col ? " " : "") + Word;
    }
    Out += Line + "\n";
  }
  std::fputs((Out + C.Epilogue).c_str(), stderr);
}

std::optional<int> cli::parse(const Command &C, const Args &A,
                              const char *Tag) {
  for (const std::string &Arg : A) {
    if (std::find(std::begin(HelpFlags), std::end(HelpFlags), Arg) !=
        std::end(HelpFlags)) {
      printUsage(C);
      return 0;
    }
    Status St;
    if (C.Positional && !Arg.empty() && Arg[0] != '-') {
      St = C.Positional(Arg);
    } else {
      // A switch matches only bare, a valued flag only with `=value`.
      size_t Eq = Arg.find('=');
      const Flag *Match = nullptr;
      for (const Flag &F : C.Flags)
        if (Arg.compare(0, Eq, F.Name) == 0 &&
            F.Value.empty() == (Eq == std::string::npos))
          Match = &F;
      if (!Match) {
        tel::logf(tel::LogLevel::Error, Tag, "unknown option '%s'",
                  Arg.c_str());
        printUsage(C);
        return 1;
      }
      St = store(*Match, Eq == std::string::npos ? "" : Arg.substr(Eq + 1));
    }
    if (!St.ok()) {
      tel::logError(Tag, St.toString());
      return 1;
    }
  }
  return std::nullopt;
}

std::vector<Flag> cli::join(std::initializer_list<std::vector<Flag>> Groups) {
  std::vector<Flag> All;
  for (const std::vector<Flag> &G : Groups)
    All.insert(All.end(), G.begin(), G.end());
  return All;
}

Setter cli::unset(bool &B) {
  return [&B](const std::string &) {
    B = false;
    return Status::success();
  };
}

Setter cli::collect(std::vector<std::string> &To) {
  return [&To](const std::string &Arg) {
    To.push_back(Arg);
    return Status::success();
  };
}

std::vector<Flag> SourceInput::flags() {
  Setter Bench = [this](const std::string &Value) {
    Expected<GeneratedBenchmark> GB = tryGeneratePaperBenchmark(Value);
    if (!GB.ok())
      return GB.status();
    Text = GB->Source;
    Name = GB->Name + ".c";
    return Status::success();
  };
  Setter Tracking = [this](const std::string &) {
    Text = trackingSource();
    Name = "tracking.c";
    return Status::success();
  };
  return {{"--bench", "<name>", "profile a paper-suite benchmark", Bench},
          {"--tracking", "", "profile the paper's Fig. 3 tracking example",
           Tracking}};
}

Setter SourceInput::readFile() {
  return [this](const std::string &Path) {
    if (!readFileToString(Path, Text))
      return Status::error(ErrorCode::IoError, "cannot read '" + Path + "'");
    Name = Path;
    return Status::success();
  };
}

Flag TelemetryOut::traceOut() {
  return {"--trace-out", "<path>",
          "stream a Chrome trace_event JSON of this run's spans through the "
          "bounded telemetry ring",
          &TracePath};
}

Flag TelemetryOut::metricsOut() {
  return {"--metrics-out", "<path>",
          "write the telemetry registry as metrics JSON", &MetricsPath};
}

bool TelemetryOut::start(const char *Tag) const {
  if (TracePath.empty())
    return true;
  Expected<std::unique_ptr<tel::FileTraceSink>> File =
      tel::FileTraceSink::open(TracePath);
  if (!File.ok()) {
    tel::logError(Tag, File.status().toString());
    return false;
  }
  // The returned status reports closing a *previous* sink; none is
  // installed at tool startup.
  (void)tel::setTraceSink(File.takeValue());
  return true;
}

bool TelemetryOut::finish(const char *Tag, const char *Announce) const {
  bool Ok = true;
  if (!TracePath.empty()) {
    if (Status St = tel::closeTraceSink(); St.ok()) {
      std::printf("%strace written to %s\n", Announce, TracePath.c_str());
    } else {
      tel::logError(Tag, St.toString());
      Ok = false;
    }
  }
  if (!MetricsPath.empty()) {
    if (writeStringToFile(MetricsPath,
                          tel::Registry::global().toJson().serialize() +
                              "\n")) {
      std::printf("%smetrics written to %s\n", Announce, MetricsPath.c_str());
    } else {
      tel::logf(tel::LogLevel::Error, Tag, "cannot write metrics to '%s'",
                MetricsPath.c_str());
      Ok = false;
    }
  }
  return Ok;
}

Flag cli::maxProfileMb(uint64_t &Bytes) {
  return {"--max-profile-mb", "<n>",
          "size budget in MiB for each profile read or upload (0 = "
          "unlimited; exceeded => structured resource-exhausted error, "
          "never OOM)",
          MiB{&Bytes}};
}

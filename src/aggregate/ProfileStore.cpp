//===- aggregate/ProfileStore.cpp -----------------------------------------===//

#include "aggregate/ProfileStore.h"

#include "aggregate/ProfileMerge.h"
#include "support/Crc32.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

using namespace kremlin;
using namespace kremlin::aggregate;
namespace fs = std::filesystem;
namespace tel = kremlin::telemetry;

std::string StoreRecovery::summary() const {
  std::string Out = formatString(
      "store recovery: %llu entr%s recovered, %zu quarantined, %llu stale "
      "tmp swept",
      static_cast<unsigned long long>(Recovered), Recovered == 1 ? "y" : "ies",
      Quarantined.size(), static_cast<unsigned long long>(TmpSwept));
  if (!Quarantined.empty()) {
    Out += " (";
    for (size_t I = 0; I < Quarantined.size(); ++I) {
      if (I)
        Out += "; ";
      Out += Quarantined[I].Name + ": " + Quarantined[I].Reason;
    }
    Out += ")";
  }
  return Out;
}

void ProfileStore::quarantineFile(const std::string &File,
                                  const std::string &Name,
                                  std::string Reason) {
  std::error_code EC;
  fs::create_directories(Dir + "/quarantine", EC);
  fs::rename(Dir + "/" + File, Dir + "/quarantine/" + File, EC);
  tel::logf(tel::LogLevel::Warn, "store", "quarantining '%s' (%s): %s",
            Name.c_str(), File.c_str(), Reason.c_str());
  Recovery.Quarantined.push_back({Name, std::move(Reason)});
}

Expected<ProfileStore> ProfileStore::open(const std::string &Dir) {
  ProfileStore S;
  S.Dir = Dir;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return Status::error(ErrorCode::IoError,
                         "cannot create store directory: " + EC.message())
        .withStage("store-open")
        .withInput(Dir);

  // Sweep stale `.tmp` files: leftovers of writes that never reached their
  // rename (crash or injected store_write fault). They were never
  // published, so removal is always safe.
  std::vector<std::string> ProfFiles;
  for (const fs::directory_entry &DE : fs::directory_iterator(Dir, EC)) {
    if (!DE.is_regular_file())
      continue;
    std::string File = DE.path().filename().string();
    if (File.size() > 4 && File.rfind(AtomicWriteTmpSuffix) ==
                               File.size() - std::strlen(AtomicWriteTmpSuffix)) {
      fs::remove(DE.path(), EC);
      ++S.Recovery.TmpSwept;
      tel::logf(tel::LogLevel::Warn, "store",
                "sweeping stale temp file '%s'", File.c_str());
    } else if (File.size() > 5 && File.rfind(".prof") == File.size() - 5) {
      ProfFiles.push_back(File);
    }
  }
  std::sort(ProfFiles.begin(), ProfFiles.end());

  // Read the index. Three outcomes: healthy (entries verified below),
  // absent/torn (rebuild from blobs), or valid-but-incompatible (the only
  // hard error — a future schema is not damage we can repair).
  std::string IndexPath = Dir + "/index.json";
  std::string Text;
  bool IndexHealthy = false;
  std::vector<StoreEntry> Indexed;
  if (readFileToString(IndexPath, Text)) {
    JsonValue Doc;
    std::string Error;
    if (JsonValue::parse(Text, Doc, &Error)) {
      unsigned Version =
          static_cast<unsigned>(Doc.getNumber("store_version", 0));
      if (Version < MinStoreSchemaVersion || Version > StoreSchemaVersion)
        return Status::error(
                   ErrorCode::DecodeError,
                   formatString("unsupported store_version: found %u, "
                                "expected %u..%u",
                                Version, MinStoreSchemaVersion,
                                StoreSchemaVersion))
            .withStage("store-open")
            .withInput(IndexPath);
      if (const JsonValue *Profiles = Doc.get("profiles");
          Profiles && Profiles->isArray()) {
        IndexHealthy = true;
        for (size_t I = 0; I < Profiles->size(); ++I) {
          const JsonValue &P = Profiles->at(I);
          StoreEntry E;
          if (const JsonValue *V = P.get("name"))
            E.Name = V->asString();
          if (const JsonValue *V = P.get("file"))
            E.File = V->asString();
          if (const JsonValue *V = P.get("source"))
            E.Source = V->asString();
          E.Bytes = static_cast<uint64_t>(P.getNumber("bytes"));
          E.DynRegions = static_cast<uint64_t>(P.getNumber("dynregions"));
          if (const JsonValue *V = P.get("crc32")) {
            E.Crc = static_cast<uint32_t>(V->asNumber());
            E.HasCrc = true;
          }
          if (E.Name.empty() || E.File.empty()) {
            S.Recovery.Quarantined.push_back(
                {formatString("entry-%zu", I), "index entry lacks name/file"});
            tel::logf(tel::LogLevel::Warn, "store",
                      "dropping index entry %zu: lacks name/file", I);
            continue;
          }
          Indexed.push_back(std::move(E));
        }
      } else {
        S.quarantineFile("index.json", "index.json",
                         "torn index: no profiles array");
      }
    } else {
      S.quarantineFile("index.json", "index.json", "torn index: " + Error);
    }
  }

  // Verify each indexed entry's blob: present, checksum-clean, and (for
  // pre-checksum v1 entries) decodable — backfilling the CRC so the next
  // open can verify cheaply.
  std::vector<std::string> Referenced;
  for (StoreEntry &E : Indexed) {
    Referenced.push_back(E.File);
    std::string Blob;
    if (!readFileToString(Dir + "/" + E.File, Blob)) {
      S.Recovery.Quarantined.push_back({E.Name, "blob missing"});
      tel::logf(tel::LogLevel::Warn, "store",
                "dropping entry '%s': blob '%s' missing", E.Name.c_str(),
                E.File.c_str());
      continue;
    }
    uint32_t Crc = crc32(Blob);
    if (E.HasCrc) {
      if (Crc != E.Crc) {
        S.quarantineFile(E.File, E.Name,
                         formatString("checksum mismatch (index %08x, "
                                      "blob %08x)",
                                      E.Crc, Crc));
        continue;
      }
    } else {
      Expected<DictionaryCompressor> D = readTrace(Blob);
      if (!D.ok()) {
        S.quarantineFile(E.File, E.Name,
                         "undecodable blob: " + D.status().message());
        continue;
      }
      E.Crc = Crc;
      E.HasCrc = true;
      ++S.Recovery.Recovered;
      tel::logf(tel::LogLevel::Info, "store",
                "backfilled checksum for v1 entry '%s'", E.Name.c_str());
    }
    S.Entries.push_back(std::move(E));
  }

  // Blobs on disk the index does not reference. With a healthy index they
  // were never acknowledged (add() publishes blob before index) — move
  // them aside. With a torn/missing index they may be previously-promised
  // data, so adopt every blob that still decodes.
  for (const std::string &File : ProfFiles) {
    if (std::find(Referenced.begin(), Referenced.end(), File) !=
        Referenced.end())
      continue;
    std::string Name = File.substr(0, File.size() - 5);
    if (IndexHealthy) {
      S.quarantineFile(File, Name, "orphaned blob (not in index)");
      continue;
    }
    std::string Blob;
    if (!readFileToString(Dir + "/" + File, Blob)) {
      S.Recovery.Quarantined.push_back({Name, "blob unreadable"});
      continue;
    }
    TraceMeta Meta;
    Expected<DictionaryCompressor> D = readTrace(Blob, &Meta);
    if (!D.ok()) {
      S.quarantineFile(File, Name, "undecodable blob: " + D.status().message());
      continue;
    }
    StoreEntry E;
    E.Name = Name;
    E.File = File;
    E.Source = Meta.Source;
    E.Bytes = Blob.size();
    E.DynRegions = D.value().numDynamicRegions();
    E.Crc = crc32(Blob);
    E.HasCrc = true;
    ++S.Recovery.Recovered;
    tel::logf(tel::LogLevel::Warn, "store",
              "adopted un-indexed blob '%s' while rebuilding index",
              File.c_str());
    S.Entries.push_back(std::move(E));
  }

  if (S.Recovery.dirty()) {
    tel::Registry::global().counter("store.recovered").add(S.Recovery.Recovered);
    tel::Registry::global()
        .counter("store.quarantined")
        .add(S.Recovery.Quarantined.size());
    tel::Registry::global().counter("store.tmp_swept").add(S.Recovery.TmpSwept);
    tel::logf(tel::LogLevel::Warn, "store", "%s",
              S.Recovery.summary().c_str());
    // Persist the repaired view. Failure here (e.g. an injected
    // store_write fault) is not fatal: the in-memory view is already
    // clean and the next successful mutation rewrites the index anyway.
    if (Status St = S.writeIndex(); !St.ok())
      tel::logf(tel::LogLevel::Warn, "store",
                "could not rewrite recovered index: %s",
                St.toString().c_str());
  }
  return S;
}

Status ProfileStore::durableWrite(const std::string &Path,
                                  std::string_view Contents) const {
  if (fault::shouldFail(fault::Site::StoreWrite)) {
    // Model a crash mid-write: half the bytes reach the temp file and the
    // rename never happens — exactly the wreckage recovery must sweep.
    writeStringToFile(Path + AtomicWriteTmpSuffix,
                      Contents.substr(0, Contents.size() / 2));
    return Status::error(ErrorCode::FaultInjected,
                         "injected store-write failure")
        .withStage("store-write")
        .withInput(Path);
  }
  return atomicWriteFile(Path, Contents);
}

Status ProfileStore::writeIndex() const {
  JsonValue Doc = JsonValue::makeObject();
  Doc.set("store_version", StoreSchemaVersion);
  JsonValue Profiles = JsonValue::makeArray();
  for (const StoreEntry &E : Entries) {
    JsonValue P = JsonValue::makeObject();
    P.set("name", E.Name);
    P.set("file", E.File);
    if (!E.Source.empty())
      P.set("source", E.Source);
    P.set("bytes", E.Bytes);
    P.set("dynregions", E.DynRegions);
    if (E.HasCrc)
      P.set("crc32", static_cast<uint64_t>(E.Crc));
    Profiles.push(std::move(P));
  }
  Doc.set("profiles", std::move(Profiles));
  return durableWrite(Dir + "/index.json", Doc.serialize() + "\n");
}

Status ProfileStore::add(const std::string &Name,
                         const DictionaryCompressor &Dict,
                         const TraceMeta &Meta) {
  if (Name.empty() ||
      Name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-") !=
          std::string::npos)
    return Status::error(ErrorCode::InvalidArgument,
                         "store names are [A-Za-z0-9._-]+: '" + Name + "'")
        .withStage("store-add");
  std::string File = Name + ".prof";
  std::string Blob = writeTrace(Dict, Meta);
  if (Status St = durableWrite(Dir + "/" + File, Blob); !St.ok())
    return St;

  StoreEntry E;
  E.Name = Name;
  E.File = File;
  E.Source = Meta.Source;
  E.Bytes = Blob.size();
  E.DynRegions = Dict.numDynamicRegions();
  E.Crc = crc32(Blob);
  E.HasCrc = true;
  bool Replaced = false;
  for (StoreEntry &Old : Entries)
    if (Old.Name == Name) {
      Old = E;
      Replaced = true;
      break;
    }
  if (!Replaced)
    Entries.push_back(std::move(E));
  return writeIndex();
}

Expected<DictionaryCompressor>
ProfileStore::load(const std::string &Name,
                   const TraceReadLimits &Limits) const {
  for (const StoreEntry &E : Entries)
    if (E.Name == Name)
      return readTraceFile(Dir + "/" + E.File, nullptr, Limits);
  return Status::error(ErrorCode::InvalidArgument,
                       "no profile named '" + Name + "' in store")
      .withStage("store-load")
      .withInput(Dir);
}

Expected<DictionaryCompressor>
ProfileStore::mergeAll(const TraceReadLimits &Limits) const {
  DictionaryCompressor Out;
  for (const StoreEntry &E : Entries) {
    Expected<DictionaryCompressor> In =
        readTraceFile(Dir + "/" + E.File, nullptr, Limits);
    if (!In.ok())
      return In.status();
    mergeInto(Out, In.value());
  }
  return Out;
}

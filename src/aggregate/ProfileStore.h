//===- aggregate/ProfileStore.h - On-disk profile store ---------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A versioned on-disk store of compressed HCPA profiles — the durable half
/// of the fleet aggregation pipeline. A store is one directory holding
/// `.prof` trace files plus an `index.json` describing them:
///
///   {
///     "store_version": 2,
///     "profiles": [
///       {"name": "ep", "file": "ep.prof", "source": "ep.minic",
///        "bytes": 1234, "dynregions": 56789, "crc32": 305419896}
///     ]
///   }
///
/// Durability: every write — blob or index — goes write-temp → fsync →
/// atomic rename (support/FileIO), so a crash at any instant leaves either
/// the old file or the new file, never a torn one, plus at worst a stale
/// `.tmp`. Each blob's CRC-32 is recorded in the index, so bit rot and
/// torn blobs are *detected*, not just avoided.
///
/// Recovery: open() never lets one damaged entry brick the store. It
/// sweeps stale `.tmp` files, rebuilds a torn index from the blobs on
/// disk, verifies every blob against its recorded checksum, and moves
/// anything damaged (checksum mismatch, missing/undecodable blob,
/// orphaned file) into `quarantine/` — naming each casualty in the
/// recovery report rather than failing the open. Only a structurally
/// valid index with a `store_version` outside the supported window is a
/// hard error: that is incompatibility, not damage. Version history: v1
/// had no `crc32` field; v1 indexes still open, and recovery backfills
/// checksums from the blobs.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_AGGREGATE_PROFILESTORE_H
#define KREMLIN_AGGREGATE_PROFILESTORE_H

#include "compress/Dictionary.h"
#include "compress/TraceIO.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace kremlin {
namespace aggregate {

/// Index schema version written by this build.
inline constexpr unsigned StoreSchemaVersion = 2;
/// Oldest index schema version open() still accepts (v1: no checksums).
inline constexpr unsigned MinStoreSchemaVersion = 1;

/// One indexed profile.
struct StoreEntry {
  std::string Name;   ///< Unique store-local name.
  std::string File;   ///< File name relative to the store directory.
  std::string Source; ///< Provenance (trace meta), possibly empty.
  uint64_t Bytes = 0; ///< Serialized size.
  uint64_t DynRegions = 0;
  uint32_t Crc = 0;    ///< CRC-32 of the serialized blob.
  bool HasCrc = false; ///< False only for not-yet-verified v1 entries.
};

/// What open()'s recovery pass did, for telemetry and operator logs.
struct StoreRecovery {
  /// One damaged entry moved aside into quarantine/.
  struct Casualty {
    std::string Name;   ///< Entry name (or file name for orphans).
    std::string Reason; ///< "checksum mismatch", "blob missing", ...
  };

  uint64_t Recovered = 0; ///< Entries rebuilt/backfilled into the index.
  uint64_t TmpSwept = 0;  ///< Stale `.tmp` files removed.
  std::vector<Casualty> Quarantined;

  bool dirty() const {
    return Recovered > 0 || TmpSwept > 0 || !Quarantined.empty();
  }
  /// One operator-readable line naming every quarantined entry.
  std::string summary() const;
};

/// The store. All mutating operations durably persist the index before
/// returning.
class ProfileStore {
public:
  /// Opens (or initializes) the store at \p Dir, running the recovery
  /// pass described in the file comment. A missing directory is created;
  /// a missing index means an empty store. DecodeError only when the
  /// index is valid but its store_version is outside
  /// [MinStoreSchemaVersion, StoreSchemaVersion].
  static Expected<ProfileStore> open(const std::string &Dir);

  /// Adds \p Dict under \p Name (overwriting an existing entry of the same
  /// name), durably writing `<Name>.prof` and refreshing the index.
  Status add(const std::string &Name, const DictionaryCompressor &Dict,
             const TraceMeta &Meta = TraceMeta());

  /// Loads one entry's dictionary (InvalidArgument when absent; \p Limits
  /// as in readTraceFile).
  Expected<DictionaryCompressor>
  load(const std::string &Name,
       const TraceReadLimits &Limits = TraceReadLimits()) const;

  /// Merges every stored profile into one dictionary (empty store merges
  /// to an empty dictionary).
  Expected<DictionaryCompressor>
  mergeAll(const TraceReadLimits &Limits = TraceReadLimits()) const;

  const std::vector<StoreEntry> &entries() const { return Entries; }
  const std::string &dir() const { return Dir; }

  /// What the recovery pass found/fixed when this store was opened.
  const StoreRecovery &recovery() const { return Recovery; }

private:
  /// Crash-safe write of \p Contents to \p Path. The fault::Site::StoreWrite
  /// drill fires here: a "failed" write leaves a half-written `.tmp` behind
  /// (exactly the wreckage a real crash leaves) and returns FaultInjected.
  Status durableWrite(const std::string &Path,
                      std::string_view Contents) const;
  Status writeIndex() const;
  /// Moves \p File (relative to the store) into quarantine/ and records
  /// the casualty. Best-effort: a failed move still quarantines the entry
  /// logically (it leaves the index either way).
  void quarantineFile(const std::string &File, const std::string &Name,
                      std::string Reason);

  std::string Dir;
  std::vector<StoreEntry> Entries;
  StoreRecovery Recovery;
};

} // namespace aggregate
} // namespace kremlin

#endif // KREMLIN_AGGREGATE_PROFILESTORE_H

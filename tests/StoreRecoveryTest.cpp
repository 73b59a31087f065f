//===- tests/StoreRecoveryTest.cpp - Store crash-recovery corpus ----------===//
//
// Table-driven recovery tests over tests/corpus/store/: each fixture is a
// profile-store directory damaged a specific way (truncated index, missing
// blob, checksum mismatch, stale temp files, orphaned blob, pre-checksum
// v1 index). Opening the store must never fail on damage — it quarantines
// exactly the damaged entries *by name*, keeps every intact one servable,
// and leaves the store clean for the next open.
//
// Fixtures are copied into a temp dir first (recovery mutates the store).
//
//===----------------------------------------------------------------------===//

#include "aggregate/ProfileStore.h"
#include "support/FaultInjection.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <string>

#include <unistd.h>

using namespace kremlin;
using namespace kremlin::aggregate;
namespace fs = std::filesystem;

namespace {

/// Copies corpus fixture \p Name into a fresh temp store directory.
std::string stageFixture(const std::string &Name) {
  std::string Src = std::string(KREMLIN_CORPUS_DIR) + "/store/" + Name;
  std::string Dst = ::testing::TempDir() + "/store_recovery_" + Name + "_" +
                    std::to_string(::getpid());
  fs::remove_all(Dst);
  fs::copy(Src, Dst, fs::copy_options::recursive);
  return Dst;
}

struct StoreCase {
  const char *Dir;
  size_t Entries;          ///< Entries surviving recovery.
  size_t Quarantined;      ///< Casualties recorded.
  uint64_t Recovered;      ///< Entries rebuilt/backfilled.
  uint64_t TmpSwept;       ///< Stale temp files removed.
  const char *CasualtyName;   ///< "" = no casualty expected.
  const char *CasualtyReason; ///< Substring of that casualty's reason.
};

const StoreCase Cases[] = {
    // A torn index quarantines the index itself and re-adopts every blob
    // that still decodes — the satellite regression: a truncated
    // index.json no longer bricks the store.
    {"truncated_index", 1, 1, 1, 0, "index.json", "torn index"},
    {"missing_blob", 1, 1, 0, 0, "fq", "blob missing"},
    {"checksum_mismatch", 1, 1, 0, 0, "ep", "checksum mismatch"},
    {"stale_tmp", 1, 0, 0, 2, "", ""},
    {"orphan_blob", 1, 1, 0, 0, "stray", "orphaned blob"},
    // v1 indexes carry no checksums: recovery verifies the blobs decode
    // and backfills CRCs so the next open verifies cheaply.
    {"v1_index", 1, 0, 1, 0, "", ""},
};

/// Prints a case by its store directory. Without this, gtest prints the
/// raw bytes of the struct, pointers included, and the ctest test names
/// (which carry the printed parameter) change with the binary's layout.
void PrintTo(const StoreCase &C, std::ostream *OS) { *OS << C.Dir; }

class StoreRecoveryTest : public ::testing::TestWithParam<StoreCase> {};

TEST_P(StoreRecoveryTest, QuarantinesDamageKeepsSurvivors) {
  const StoreCase &C = GetParam();
  ASSERT_TRUE(fs::exists(std::string(KREMLIN_CORPUS_DIR) + "/store/" +
                         C.Dir))
      << "corpus fixture missing: " << C.Dir;
  std::string Dir = stageFixture(C.Dir);

  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_TRUE(Store.ok()) << Store.status().toString();
  const StoreRecovery &Rec = Store.value().recovery();

  EXPECT_EQ(Store.value().entries().size(), C.Entries);
  EXPECT_EQ(Rec.Quarantined.size(), C.Quarantined);
  EXPECT_EQ(Rec.Recovered, C.Recovered);
  EXPECT_EQ(Rec.TmpSwept, C.TmpSwept);

  if (*C.CasualtyName) {
    bool Found = false;
    for (const StoreRecovery::Casualty &Q : Rec.Quarantined)
      if (Q.Name == C.CasualtyName) {
        Found = true;
        EXPECT_NE(Q.Reason.find(C.CasualtyReason), std::string::npos)
            << Q.Reason;
      }
    EXPECT_TRUE(Found) << "no casualty named '" << C.CasualtyName
                       << "' in: " << Rec.summary();
    // The operator-facing summary names the casualty too.
    EXPECT_NE(Rec.summary().find(C.CasualtyName), std::string::npos)
        << Rec.summary();
  }

  // Every surviving entry is actually servable.
  Expected<DictionaryCompressor> Merged = Store.value().mergeAll();
  EXPECT_TRUE(Merged.ok()) << Merged.status().toString();

  // No stale temp files survive recovery.
  for (const fs::directory_entry &DE : fs::directory_iterator(Dir))
    EXPECT_NE(DE.path().extension(), ".tmp") << DE.path();
  EXPECT_FALSE(fs::exists(Dir + "/ep.prof.tmp"));
  EXPECT_FALSE(fs::exists(Dir + "/index.json.tmp"));

  // Recovery converges: a second open finds a clean store.
  Expected<ProfileStore> Again = ProfileStore::open(Dir);
  ASSERT_TRUE(Again.ok()) << Again.status().toString();
  EXPECT_FALSE(Again.value().recovery().dirty())
      << Again.value().recovery().summary();
  EXPECT_EQ(Again.value().entries().size(), C.Entries);

  fs::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Corpus, StoreRecoveryTest, ::testing::ValuesIn(Cases),
                         [](const ::testing::TestParamInfo<StoreCase> &I) {
                           return std::string(I.param.Dir);
                         });

// --- Damaged-file quarantine moves the bytes aside, not into the void. --

TEST(StoreRecovery, ChecksumCasualtyLandsInQuarantineDir) {
  std::string Dir = stageFixture("checksum_mismatch");
  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_TRUE(Store.ok());
  // The damaged blob is preserved under quarantine/ for post-mortems.
  EXPECT_TRUE(fs::exists(Dir + "/quarantine/ep.prof"));
  EXPECT_FALSE(fs::exists(Dir + "/ep.prof"));
  // The survivor is still on disk and indexed.
  ASSERT_EQ(Store.value().entries().size(), 1u);
  EXPECT_EQ(Store.value().entries()[0].Name, "fq");
  EXPECT_TRUE(Store.value().load("fq").ok());
  fs::remove_all(Dir);
}

TEST(StoreRecovery, RecoveredStoreAcceptsNewWrites) {
  // The regression at the heart of the satellite: after index loss and
  // rebuild, the store must still be fully writable.
  std::string Dir = stageFixture("truncated_index");
  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_TRUE(Store.ok());
  ASSERT_EQ(Store.value().entries().size(), 1u);

  Expected<DictionaryCompressor> Survivor = Store.value().load("ep");
  ASSERT_TRUE(Survivor.ok());
  ASSERT_TRUE(Store.value().add("fresh", Survivor.value()).ok());

  Expected<ProfileStore> Again = ProfileStore::open(Dir);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(Again.value().entries().size(), 2u);
  EXPECT_FALSE(Again.value().recovery().dirty());
  fs::remove_all(Dir);
}

// --- The store_write fault drill leaves exactly a crash's wreckage. -----

TEST(StoreRecovery, InjectedWriteFaultIsCleanedUpOnReopen) {
  std::string Dir = ::testing::TempDir() + "/store_fault_" +
                    std::to_string(::getpid());
  fs::remove_all(Dir);
  {
    Expected<ProfileStore> Store = ProfileStore::open(Dir);
    ASSERT_TRUE(Store.ok());
    DictionaryCompressor D;
    ASSERT_TRUE(Store.value().add("good", D).ok());

    // Every store write now "crashes": half the bytes land in a temp file
    // and the rename never happens.
    ASSERT_TRUE(fault::configure("store_write", 7));
    Status St = Store.value().add("doomed", D);
    fault::reset();
    EXPECT_FALSE(St.ok());
    EXPECT_EQ(St.code(), ErrorCode::FaultInjected) << St.toString();
    EXPECT_TRUE(fs::exists(Dir + "/doomed.prof.tmp"));
  }

  // Reopen: the pre-fault state survives intact, the wreckage is swept,
  // and nothing is quarantined (the torn write was never published).
  Expected<ProfileStore> Again = ProfileStore::open(Dir);
  ASSERT_TRUE(Again.ok()) << Again.status().toString();
  ASSERT_EQ(Again.value().entries().size(), 1u);
  EXPECT_EQ(Again.value().entries()[0].Name, "good");
  EXPECT_GE(Again.value().recovery().TmpSwept, 1u);
  EXPECT_TRUE(Again.value().recovery().Quarantined.empty());
  EXPECT_FALSE(fs::exists(Dir + "/doomed.prof.tmp"));
  fs::remove_all(Dir);
}

TEST(StoreRecovery, FutureStoreVersionIsStillAHardErrorByName) {
  // Damage is repaired; incompatibility is refused. A valid index from a
  // future schema must fail by name, exactly as before.
  std::string Dir = ::testing::TempDir() + "/store_future_" +
                    std::to_string(::getpid());
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  ASSERT_TRUE(writeStringToFile(
      Dir + "/index.json", "{\"store_version\": 99, \"profiles\": []}\n"));
  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_FALSE(Store.ok());
  EXPECT_EQ(Store.status().code(), ErrorCode::DecodeError);
  EXPECT_NE(Store.status().message().find("found 99"), std::string::npos)
      << Store.status().toString();
  fs::remove_all(Dir);
}

} // namespace

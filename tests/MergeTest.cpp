//===- tests/MergeTest.cpp - merge operator + store properties ------------===//
//
// Property tests for the fleet merge operator: commutativity,
// associativity, identity, SP bounds, and the ΣSelfWork invariant, over
// deterministic pseudo-random profiles — plus exactness against the
// independent HCPA oracle on real profiled runs, and the ProfileStore
// round trip.
//
//===----------------------------------------------------------------------===//

#include "HcpaOracle.h"
#include "TestUtil.h"

#include "aggregate/ProfileMerge.h"
#include "aggregate/ProfileStore.h"
#include "compress/TraceIO.h"
#include "report/ProfileExport.h"
#include "suite/PaperSuite.h"
#include "support/Json.h"
#include "support/Prng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <set>

using namespace kremlin;
using namespace kremlin::aggregate;
using namespace kremlin::test;

namespace {

/// Builds a random but structurally valid dictionary: a leaves-first DAG
/// of summaries over a small static-region id space (small so profiles
/// overlap on regions, exercising the cross-profile recombination paths),
/// rooted at its final entry. Static id 0 is reserved for the root entry —
/// as in real profiles, where main executes only as the outermost region —
/// which keeps the root region's total work equal to program work.
DictionaryCompressor randomProfile(uint64_t Seed) {
  Prng R(Seed);
  DictionaryCompressor Dict;
  std::vector<SummaryChar> Chars;
  size_t NumEntries = 3 + R.nextBelow(12);
  for (size_t E = 0; E < NumEntries; ++E) {
    DynRegionSummary S;
    S.Static = E + 1 == NumEntries
                   ? 0
                   : static_cast<RegionId>(1 + R.nextBelow(4));
    uint64_t ChildWork = 0;
    if (!Chars.empty()) {
      size_t NumChildren = R.nextBelow(std::min<size_t>(Chars.size(), 3) + 1);
      std::vector<SummaryChar> Picked;
      for (size_t C = 0; C < NumChildren; ++C)
        Picked.push_back(Chars[R.nextBelow(Chars.size())]);
      std::sort(Picked.begin(), Picked.end());
      Picked.erase(std::unique(Picked.begin(), Picked.end()), Picked.end());
      for (SummaryChar C : Picked) {
        uint64_t Freq = 1 + R.nextBelow(4);
        S.Children.emplace_back(C, Freq);
        ChildWork += Dict.alphabet()[C].Work * Freq;
      }
    }
    S.Work = ChildWork + 1 + R.nextBelow(1000);
    S.Cp = 1 + R.nextBelow(S.Work);
    Chars.push_back(Dict.intern(std::move(S)));
  }
  Dict.onRootExit(Chars.back());
  if (R.nextBool(0.5))
    Dict.onRootExit(Chars.back());
  return Dict;
}

/// A fleet profile as `kremlin diff` reads it: the dictionary's region
/// entries over its synthetic module.
struct FleetProfile {
  explicit FleetProfile(const DictionaryCompressor &Dict)
      : M(syntheticModule(Dict)), P(M, Dict) {}

  /// The executed regions' entries, by ascending id.
  std::vector<const RegionProfileEntry *> executed() const {
    std::vector<const RegionProfileEntry *> Out;
    for (const RegionProfileEntry &E : P.entries())
      if (E.Executed)
        Out.push_back(&E);
    return Out;
  }

  /// Region \p Id's entry, or nullptr when the region never executed.
  const RegionProfileEntry *find(RegionId Id) const {
    return Id < P.entries().size() && P.entries()[Id].Executed
               ? &P.entries()[Id]
               : nullptr;
  }

  Module M;
  ParallelismProfile P;
};

/// Exact equality on the integer aggregates, tolerance on SP (alphabet
/// numbering differs between merge orders, so floating-point accumulation
/// order may too).
void expectSameEntries(const DictionaryCompressor &DA,
                       const DictionaryCompressor &DB) {
  FleetProfile FA(DA), FB(DB);
  std::vector<const RegionProfileEntry *> A = FA.executed(), B = FB.executed();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I]->Id, B[I]->Id);
    EXPECT_EQ(A[I]->Instances, B[I]->Instances) << "r" << A[I]->Id;
    EXPECT_EQ(A[I]->TotalWork, B[I]->TotalWork) << "r" << A[I]->Id;
    EXPECT_EQ(A[I]->TotalCp, B[I]->TotalCp) << "r" << A[I]->Id;
    EXPECT_EQ(A[I]->TotalChildren, B[I]->TotalChildren) << "r" << A[I]->Id;
    EXPECT_NEAR(A[I]->SelfParallelism, B[I]->SelfParallelism,
                1e-9 * std::max(1.0, A[I]->SelfParallelism))
        << "r" << A[I]->Id;
    EXPECT_NEAR(A[I]->CoveragePct, B[I]->CoveragePct, 1e-9)
        << "r" << A[I]->Id;
  }
}

TEST(MergeProperty, EmptyIsIdentity) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    DictionaryCompressor P = randomProfile(Seed);
    DictionaryCompressor Empty;

    DictionaryCompressor Left;
    mergeInto(Left, Empty);
    mergeInto(Left, P);
    DictionaryCompressor Right;
    mergeInto(Right, P);
    mergeInto(Right, Empty);

    for (DictionaryCompressor *M : {&Left, &Right}) {
      ASSERT_EQ(M->alphabet().size(), P.alphabet().size()) << Seed;
      for (size_t C = 0; C < P.alphabet().size(); ++C)
        EXPECT_TRUE(M->alphabet()[C] == P.alphabet()[C]) << Seed;
      EXPECT_EQ(M->roots(), P.roots()) << Seed;
      EXPECT_EQ(M->numDynamicRegions(), P.numDynamicRegions()) << Seed;
    }
  }
}

TEST(MergeProperty, Commutative) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    DictionaryCompressor A = randomProfile(2 * Seed);
    DictionaryCompressor B = randomProfile(2 * Seed + 1);
    DictionaryCompressor AB = mergeProfiles({&A, &B});
    DictionaryCompressor BA = mergeProfiles({&B, &A});
    expectSameEntries(AB, BA);
    EXPECT_EQ(programWork(AB), programWork(BA));
    EXPECT_EQ(AB.numDynamicRegions(), BA.numDynamicRegions());
  }
}

TEST(MergeProperty, Associative) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    DictionaryCompressor A = randomProfile(3 * Seed);
    DictionaryCompressor B = randomProfile(3 * Seed + 1);
    DictionaryCompressor C = randomProfile(3 * Seed + 2);
    DictionaryCompressor AB_C = mergeProfiles({&A, &B});
    mergeInto(AB_C, C);
    DictionaryCompressor BC = mergeProfiles({&B, &C});
    DictionaryCompressor A_BC;
    mergeInto(A_BC, A);
    mergeInto(A_BC, BC);
    expectSameEntries(AB_C, A_BC);
    EXPECT_EQ(programWork(AB_C), programWork(A_BC));
  }
}

TEST(MergeProperty, WorkIsAdditiveAndSpStaysBounded) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    DictionaryCompressor A = randomProfile(5 * Seed);
    DictionaryCompressor B = randomProfile(5 * Seed + 3);
    DictionaryCompressor M = mergeProfiles({&A, &B});
    EXPECT_EQ(programWork(M), programWork(A) + programWork(B));

    FleetProfile FA(A), FB(B), FM(M);
    for (const RegionProfileEntry *E : FM.executed()) {
      const RegionProfileEntry &R = *E;
      const RegionProfileEntry *RA = FA.find(R.Id);
      const RegionProfileEntry *RB = FB.find(R.Id);
      ASSERT_TRUE(RA || RB) << "r" << R.Id;
      EXPECT_EQ(R.TotalWork,
                (RA ? RA->TotalWork : 0) + (RB ? RB->TotalWork : 0));
      EXPECT_EQ(R.Instances,
                (RA ? RA->Instances : 0) + (RB ? RB->Instances : 0));
      // Merged SP is a work-weighted mean of the inputs' per-region SPs,
      // so it can never escape their envelope.
      double Lo = std::min(RA ? RA->SelfParallelism : 1e300,
                           RB ? RB->SelfParallelism : 1e300);
      double Hi = std::max(RA ? RA->SelfParallelism : 0.0,
                           RB ? RB->SelfParallelism : 0.0);
      EXPECT_GE(R.SelfParallelism, Lo - 1e-9 * std::max(1.0, Lo))
          << "r" << R.Id;
      EXPECT_LE(R.SelfParallelism, Hi + 1e-9 * std::max(1.0, Hi))
          << "r" << R.Id;
    }
  }
}

TEST(MergeProperty, RegionTreePreservesSelfWorkSum) {
  // The report invariant ΣSelfWork == program work must survive merging:
  // the merged tree's flamegraph weights still account for every unit of
  // fleet work exactly once. The random profiles are DAG-shaped (shared
  // children, self-edges, parent cycles), so a region reached along
  // several paths must still be one node.
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    DictionaryCompressor A = randomProfile(2 * Seed);
    DictionaryCompressor B = randomProfile(2 * Seed + 1);
    DictionaryCompressor M = mergeProfiles({&A, &B});
    Module Mod = syntheticModule(M);
    ParallelismProfile P(Mod, M);
    report::RegionTree Tree = report::buildRegionTree(P);
    uint64_t SelfSum = 0;
    std::set<RegionId> Regions;
    for (const report::RegionTreeNode &N : Tree.Nodes) {
      SelfSum += N.SelfWork;
      EXPECT_TRUE(Regions.insert(N.Region).second) << Seed << " r" << N.Region;
    }
    EXPECT_EQ(Regions.size(), FleetProfile(M).executed().size()) << Seed;
    EXPECT_EQ(SelfSum, P.programWork()) << Seed;
    EXPECT_EQ(P.programWork(), programWork(A) + programWork(B)) << Seed;
  }
}

/// Same integer aggregates, same SP up to float associativity.
void expectSameAggregates(const ParallelismProfile &Got,
                          const ParallelismProfile &Want) {
  EXPECT_EQ(Got.programWork(), Want.programWork());
  ASSERT_EQ(Got.entries().size(), Want.entries().size());
  for (size_t I = 0; I < Got.entries().size(); ++I) {
    const RegionProfileEntry &A = Got.entries()[I];
    const RegionProfileEntry &B = Want.entries()[I];
    EXPECT_EQ(A.TotalWork, B.TotalWork) << "r" << I;
    EXPECT_EQ(A.TotalCp, B.TotalCp) << "r" << I;
    EXPECT_EQ(A.Instances, B.Instances) << "r" << I;
    EXPECT_NEAR(A.SelfParallelism, B.SelfParallelism, 1e-9) << "r" << I;
  }
}

TEST(Merge, MatchesTheOracleOnConcatenatedRuns) {
  // Merging two runtime profiles must give the profile of one dictionary
  // into which the independent oracle (HcpaOracle.h) interned both runs.
  // recursion_demo.c is left out: the oracle needs seconds for it.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const char *Name : {"lint_demo.c", "quickstart.c", "reduction_demo.c"}) {
    std::string Source;
    ASSERT_TRUE(readFileToString(
        std::string(KREMLIN_EXAMPLES_DIR "/minic/") + Name, Source))
        << Name;
    Programs.emplace_back(Name, std::move(Source));
  }
  Programs.emplace_back("is", generatePaperBenchmark("is").Source);

  for (const auto &[Name, Source] : Programs) {
    SCOPED_TRACE(Name);
    ProfiledRun First = profileSource(Source);
    ProfiledRun Second = profileSource(Source);
    DictionaryCompressor Merged =
        mergeProfiles({First.Dict.get(), Second.Dict.get()});
    DictionaryCompressor Concatenated;
    for (int Run = 0; Run < 2; ++Run)
      runOracle(*First.M, KremlinConfig(), Concatenated);
    expectSameAggregates(ParallelismProfile(*First.M, Merged),
                         ParallelismProfile(*First.M, Concatenated));
    // Identical runs share every summary: the merged alphabet must not
    // have grown (the dictionary-union compression win at fleet scale).
    EXPECT_EQ(Merged.alphabet().size(), First.Dict->alphabet().size());
    EXPECT_EQ(Merged.numDynamicRegions(),
              2 * First.Dict->numDynamicRegions());
  }
}

TEST(Merge, DiffRendersDeltasAndOneSidedRegions) {
  DictionaryCompressor A = randomProfile(11);
  DictionaryCompressor B = mergeProfiles({&A, &A});
  std::string Diff = renderProfileDiff(A, B);
  EXPECT_NE(Diff.find("region"), std::string::npos);
  EXPECT_NE(Diff.find("program work:"), std::string::npos);

  DictionaryCompressor Empty;
  std::string Added = renderProfileDiff(Empty, A);
  EXPECT_NE(Added.find("added"), std::string::npos) << Added;
  std::string Removed = renderProfileDiff(A, Empty);
  EXPECT_NE(Removed.find("removed"), std::string::npos) << Removed;
}

TEST(Merge, SyntheticModuleCoversReferencedRegions) {
  DictionaryCompressor P = randomProfile(23);
  Module M = syntheticModule(P);
  for (const DynRegionSummary &S : P.alphabet()) {
    ASSERT_LT(S.Static, M.Regions.size());
    EXPECT_EQ(M.Regions[S.Static].Name,
              formatString("r%u", S.Static));
  }
}

// --- ProfileStore ------------------------------------------------------------

TEST(ProfileStore, RoundTripsThroughIndex) {
  std::string Dir = ::testing::TempDir() + "/kremlin_store_test";
  std::filesystem::remove_all(Dir);

  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_TRUE(Store.ok()) << Store.status().toString();
  DictionaryCompressor A = randomProfile(1), B = randomProfile(2);
  TraceMeta Meta;
  Meta.Source = "unit.c";
  ASSERT_TRUE(Store->add("alpha", A, Meta).ok());
  ASSERT_TRUE(Store->add("beta", B).ok());
  EXPECT_EQ(Store->entries().size(), 2u);

  // Reopen from disk: the index must restore every entry, and loads must
  // reproduce the dictionaries.
  Expected<ProfileStore> Reopened = ProfileStore::open(Dir);
  ASSERT_TRUE(Reopened.ok()) << Reopened.status().toString();
  ASSERT_EQ(Reopened->entries().size(), 2u);
  EXPECT_EQ(Reopened->entries()[0].Source, "unit.c");
  Expected<DictionaryCompressor> LoadedA = Reopened->load("alpha");
  ASSERT_TRUE(LoadedA.ok());
  EXPECT_EQ(LoadedA->numDynamicRegions(), A.numDynamicRegions());
  EXPECT_FALSE(Reopened->load("missing").ok());

  Expected<DictionaryCompressor> All = Reopened->mergeAll();
  ASSERT_TRUE(All.ok());
  EXPECT_EQ(programWork(*All), programWork(A) + programWork(B));

  // Same-name add replaces instead of duplicating.
  ASSERT_TRUE(Reopened->add("alpha", B).ok());
  EXPECT_EQ(Reopened->entries().size(), 2u);

  std::filesystem::remove_all(Dir);
}

TEST(ProfileStore, RejectsUnknownStoreVersionByName) {
  std::string Dir = ::testing::TempDir() + "/kremlin_store_badver";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  ASSERT_TRUE(writeStringToFile(
      Dir + "/index.json",
      "{\"store_version\": 99, \"profiles\": []}\n"));
  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_FALSE(Store.ok());
  EXPECT_EQ(Store.status().code(), ErrorCode::DecodeError);
  EXPECT_NE(Store.status().toString().find("found 99"), std::string::npos)
      << Store.status().toString();
  EXPECT_FALSE(ProfileStore::open(Dir).ok());
  std::filesystem::remove_all(Dir);

  // Bad names are rejected before touching the filesystem.
  Expected<ProfileStore> Fresh =
      ProfileStore::open(::testing::TempDir() + "/kremlin_store_names");
  ASSERT_TRUE(Fresh.ok());
  EXPECT_EQ(Fresh->add("../escape", DictionaryCompressor()).code(),
            ErrorCode::InvalidArgument);
}

} // namespace

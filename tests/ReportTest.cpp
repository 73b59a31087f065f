//===- tests/ReportTest.cpp - Profile explorer export tests ---------------===//
//
// Covers the report layer: the region-tree layout (preorder shape, work
// accounting, one node per region, coverage pruning), speedscope JSON schema
// validity, collapsed-stacks weights, the per-region timeline export, the
// terminal tree view, and byte-exact golden files for a fixed MiniC
// program (regenerate with KREMLIN_UPDATE_GOLDEN=1).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "report/ProfileExport.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdlib>
#include <set>
#include <string>

using namespace kremlin;
using namespace kremlin::test;
using namespace kremlin::report;

namespace {

/// Fixed program behind the golden files: a DOALL initialization loop
/// followed by a serial reduction — the smallest program whose flamegraph
/// shows both a parallel and a serial region.
const char *goldenSource() {
  return R"(int a[32];
int main() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) {
    a[i] = i * 2;
  }
  for (int j = 0; j < 8; j = j + 1) {
    s = s + a[j];
  }
  return s;
})";
}

ProfiledRun goldenRun() { return profileSource(goldenSource()); }

/// Compares \p Actual against the checked-in golden file, or rewrites the
/// file when KREMLIN_UPDATE_GOLDEN is set (then the test still verifies
/// the write round-trips).
void expectMatchesGolden(const std::string &Actual, const char *FileName) {
  std::string Path = std::string(KREMLIN_GOLDEN_DIR) + "/" + FileName;
  if (std::getenv("KREMLIN_UPDATE_GOLDEN")) {
    ASSERT_TRUE(writeStringToFile(Path, Actual)) << "cannot write " << Path;
  }
  std::string Expected;
  ASSERT_TRUE(readFileToString(Path, Expected))
      << "missing golden file " << Path
      << " (regenerate with KREMLIN_UPDATE_GOLDEN=1)";
  EXPECT_EQ(Actual, Expected) << "golden mismatch for " << FileName
                              << "; regenerate with KREMLIN_UPDATE_GOLDEN=1 "
                                 "if the change is intended";
}

TEST(ReportTree, PreorderShapeAndWorkAccounting) {
  ProfiledRun Run = goldenRun();
  RegionTree T = buildRegionTree(*Run.Profile);
  ASSERT_FALSE(T.Nodes.empty());
  EXPECT_EQ(T.ProgramWork, Run.Profile->programWork());

  // Root is main with full coverage.
  EXPECT_EQ(T.Nodes[0].Parent, -1);
  EXPECT_EQ(T.Nodes[0].Depth, 0u);
  EXPECT_DOUBLE_EQ(T.Nodes[0].CoveragePct, 100.0);
  EXPECT_EQ(Run.M->Regions[T.Nodes[0].Region].Name, "main");

  uint64_t SelfSum = 0;
  for (size_t I = 0; I < T.Nodes.size(); ++I) {
    const RegionTreeNode &N = T.Nodes[I];
    SelfSum += N.SelfWork;
    EXPECT_LE(N.SelfWork, N.Work);
    if (I == 0)
      continue;
    // Preorder: every parent precedes its children and is one level up.
    ASSERT_GE(N.Parent, 0);
    ASSERT_LT(static_cast<size_t>(N.Parent), I);
    EXPECT_EQ(N.Depth, T.Nodes[static_cast<size_t>(N.Parent)].Depth + 1);
  }
  // Self-work partitions the root's work exactly.
  EXPECT_EQ(SelfSum, T.Nodes[0].Work);
  // The two loops and their bodies all appear: main + 2*(loop+body).
  EXPECT_EQ(T.Nodes.size(), 5u);
}

TEST(ReportTree, MinCoveragePruningFoldsIntoParent) {
  ProfiledRun Run = goldenRun();
  ReportOptions Opts;
  Opts.MinCoveragePct = 101.0; // Nothing but the root survives.
  RegionTree T = buildRegionTree(*Run.Profile, Opts);
  ASSERT_EQ(T.Nodes.size(), 1u);
  // Pruned subtrees fold back: the root keeps all work as self-work.
  EXPECT_EQ(T.Nodes[0].SelfWork, T.Nodes[0].Work);
}

TEST(ReportTree, RecursionBackEdgesAreCut) {
  ProfiledRun Run = profileSource(R"(
    int down(int n) {
      if (n <= 0) { return 0; }
      return down(n - 1) + n;
    }
    int main() { return down(40); }
  )");
  RegionTree T = buildRegionTree(*Run.Profile);
  // Finite tree despite the recursive call graph; down appears once.
  unsigned DownNodes = 0;
  for (const RegionTreeNode &N : T.Nodes)
    DownNodes += Run.M->Regions[N.Region].Name == "down";
  EXPECT_EQ(DownNodes, 1u);
}

TEST(ReportTree, CallChainIsOneNodePerRegion) {
  // Every f<k+1> has two callers, so the region graph has 2^24
  // root-to-leaf paths; the tree still holds each executed region once.
  ProfiledRun Run = profileSource(callChainSource(24));
  RegionTree T = buildRegionTree(*Run.Profile);
  std::set<RegionId> Regions;
  uint64_t SelfSum = 0;
  for (const RegionTreeNode &N : T.Nodes) {
    EXPECT_TRUE(Regions.insert(N.Region).second) << "r" << N.Region;
    SelfSum += N.SelfWork;
  }
  size_t Executed = 0;
  for (const RegionProfileEntry &E : Run.Profile->entries())
    Executed += E.Executed;
  EXPECT_EQ(T.Nodes.size(), Executed);
  EXPECT_EQ(SelfSum, Run.Profile->programWork());
  EXPECT_EQ(T.Nodes[0].Work, Run.Profile->programWork());
}

TEST(ReportSpeedscope, SchemaAndWeightInvariants) {
  ProfiledRun Run = goldenRun();
  RegionTree T = buildRegionTree(*Run.Profile);
  std::string Json = exportSpeedscope(*Run.Profile, T, "golden.c");

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.get("$schema")->asString(),
            "https://www.speedscope.app/file-format-schema.json");
  const JsonValue *Frames = Doc.get("shared")->get("frames");
  ASSERT_NE(Frames, nullptr);
  ASSERT_GT(Frames->size(), 0u);
  for (size_t I = 0; I < Frames->size(); ++I)
    EXPECT_TRUE(Frames->at(I).get("name"));

  const JsonValue *Profiles = Doc.get("profiles");
  ASSERT_NE(Profiles, nullptr);
  ASSERT_EQ(Profiles->size(), 1u);
  const JsonValue &P = Profiles->at(0);
  EXPECT_EQ(P.get("type")->asString(), "sampled");
  const JsonValue *Samples = P.get("samples");
  const JsonValue *Weights = P.get("weights");
  ASSERT_NE(Samples, nullptr);
  ASSERT_NE(Weights, nullptr);
  ASSERT_EQ(Samples->size(), Weights->size());
  double WeightSum = 0;
  for (size_t I = 0; I < Samples->size(); ++I) {
    const JsonValue &Stack = Samples->at(I);
    ASSERT_GT(Stack.size(), 0u);
    for (size_t F = 0; F < Stack.size(); ++F) {
      // Every sample frame index points into the shared frame table.
      ASSERT_LT(Stack.at(F).asNumber(), static_cast<double>(Frames->size()));
    }
    EXPECT_GT(Weights->at(I).asNumber(), 0.0);
    WeightSum += Weights->at(I).asNumber();
  }
  EXPECT_DOUBLE_EQ(P.getNumber("endValue"), WeightSum);
  // Weights partition the program's work.
  EXPECT_DOUBLE_EQ(WeightSum,
                   static_cast<double>(Run.Profile->programWork()));
}

TEST(ReportSpeedscope, FramesCarrySelfParallelismAnnotations) {
  ProfiledRun Run = goldenRun();
  RegionTree T = buildRegionTree(*Run.Profile);
  std::string Json = exportSpeedscope(*Run.Profile, T, "golden.c");
  EXPECT_NE(Json.find("SP="), std::string::npos);
  EXPECT_NE(Json.find("[loop SP="), std::string::npos);
}

TEST(ReportCollapsed, WeightsSumToProgramWork) {
  ProfiledRun Run = goldenRun();
  RegionTree T = buildRegionTree(*Run.Profile);
  std::string Text = exportCollapsed(*Run.Profile, T);
  ASSERT_FALSE(Text.empty());
  uint64_t Sum = 0;
  for (const std::string &Line : splitString(Text, '\n')) {
    if (Line.empty())
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    // Frames are space-free, so the only space separates stack and weight.
    EXPECT_EQ(Line.find(' '), Space) << Line;
    Sum += std::strtoull(Line.c_str() + Space + 1, nullptr, 10);
  }
  EXPECT_EQ(Sum, Run.Profile->programWork());
}

TEST(ReportTimeline, RegionsSortedWithVisits) {
  ProfiledRun Run = goldenRun();
  std::string Json = exportTimeline(*Run.Profile, *Run.Dict);
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Json, Doc, &Error)) << Error;
  EXPECT_DOUBLE_EQ(Doc.getNumber("program_work"),
                   static_cast<double>(Run.Profile->programWork()));
  const JsonValue *Regions = Doc.get("regions");
  ASSERT_NE(Regions, nullptr);
  ASSERT_GT(Regions->size(), 0u);
  double PrevWork = -1.0;
  for (size_t I = 0; I < Regions->size(); ++I) {
    const JsonValue &R = Regions->at(I);
    const JsonValue *Visits = R.get("visits");
    ASSERT_NE(Visits, nullptr);
    ASSERT_GT(Visits->size(), 0u);
    double Work = 0;
    uint64_t Count = 0;
    for (size_t V = 0; V < Visits->size(); ++V) {
      Work = std::max(Work, Visits->at(V).getNumber("work"));
      Count += static_cast<uint64_t>(Visits->at(V).getNumber("count"));
      EXPECT_GE(Visits->at(V).getNumber("self_parallelism"), 1.0);
    }
    EXPECT_GT(Count, 0u);
    // The first region is the root with full coverage.
    if (I == 0) {
      EXPECT_DOUBLE_EQ(R.getNumber("coverage_pct"), 100.0);
    }
    (void)PrevWork;
    PrevWork = Work;
  }
  // Top=1 keeps only the highest-coverage region.
  ReportOptions Opts;
  Opts.Top = 1;
  std::string TopJson = exportTimeline(*Run.Profile, *Run.Dict, Opts);
  JsonValue TopDoc;
  ASSERT_TRUE(JsonValue::parse(TopJson, TopDoc, &Error)) << Error;
  EXPECT_EQ(TopDoc.get("regions")->size(), 1u);
}

TEST(ReportTreeView, RendersAlignedRowsWithLoopClasses) {
  ProfiledRun Run = goldenRun();
  RegionTree T = buildRegionTree(*Run.Profile);
  std::string Table = renderTree(*Run.Profile, T);
  EXPECT_NE(Table.find("main"), std::string::npos);
  EXPECT_NE(Table.find("DOALL"), std::string::npos);
  EXPECT_NE(Table.find("cov%"), std::string::npos);

  ReportOptions Opts;
  Opts.Top = 2;
  std::string Short = renderTree(*Run.Profile, T, Opts);
  // Header + separator + 2 rows.
  EXPECT_EQ(splitString(Short, '\n').size(), 5u); // Trailing "" included.
}

TEST(ReportGolden, SpeedscopeOutputIsStable) {
  ProfiledRun Run = goldenRun();
  RegionTree T = buildRegionTree(*Run.Profile);
  expectMatchesGolden(exportSpeedscope(*Run.Profile, T, "golden.c"),
                      "report_golden.speedscope.json");
}

TEST(ReportGolden, CollapsedOutputIsStable) {
  ProfiledRun Run = goldenRun();
  RegionTree T = buildRegionTree(*Run.Profile);
  expectMatchesGolden(exportCollapsed(*Run.Profile, T),
                      "report_golden.collapsed.txt");
}

} // namespace

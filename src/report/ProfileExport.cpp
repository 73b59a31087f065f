//===- report/ProfileExport.cpp -------------------------------------------===//

#include "report/ProfileExport.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <unordered_map>

using namespace kremlin;
using namespace kremlin::report;

namespace {

/// Compact, space-free frame label for collapsed-stacks output.
std::string collapsedLabel(const Module &M, const RegionProfileEntry &E) {
  const StaticRegion &R = M.Regions[E.Id];
  return formatString("%s:%s:%u[SP=%s]", R.Name.c_str(),
                      regionKindName(R.Kind), R.StartLine,
                      formatFixed(E.SelfParallelism, 1).c_str());
}

/// Root-to-node frame stack as tree-node indices.
std::vector<int> pathTo(const RegionTree &T, int Node) {
  std::vector<int> Path;
  for (int I = Node; I >= 0; I = T.Nodes[static_cast<size_t>(I)].Parent)
    Path.push_back(I);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

} // namespace

// --- Tree building ----------------------------------------------------------

RegionTree report::buildRegionTree(const ParallelismProfile &P,
                                   const ReportOptions &Opts) {
  RegionTree T;
  T.ProgramWork = P.programWork();
  auto CoverageOf = [&](uint64_t Work) {
    return T.ProgramWork ? 100.0 * static_cast<double>(Work) /
                               static_cast<double>(T.ProgramWork)
                         : 0.0;
  };

  // Subtree work: the profile's preorder lists parents first, so a reverse
  // walk sums each region's self-work into its ancestors.
  const std::vector<RegionId> &Order = P.preorder();
  std::vector<uint64_t> Work(P.entries().size(), 0);
  for (size_t I = Order.size(); I-- > 0;) {
    RegionId R = Order[I];
    Work[R] += P.entry(R).SelfWork;
    if (P.parent(R) != NoRegion)
      Work[P.parent(R)] += Work[R];
  }

  // Emit depth-first with children by descending work, ties by id. A
  // pruned child's subtree folds into its parent's self-work.
  struct Pending {
    RegionId Region;
    int Parent;
    unsigned Depth;
  };
  std::vector<Pending> Stack;
  if (!Order.empty())
    Stack.push_back({P.rootRegion(), -1, 0});
  std::vector<RegionId> Kids;
  while (!Stack.empty()) {
    Pending Cur = Stack.back();
    Stack.pop_back();
    const RegionProfileEntry &E = P.entry(Cur.Region);
    RegionTreeNode Node;
    Node.Region = Cur.Region;
    Node.Parent = Cur.Parent;
    Node.Depth = Cur.Depth;
    Node.Work = Work[Cur.Region];
    Node.SelfWork = E.SelfWork;
    Node.Visits = E.Instances;
    Node.SelfParallelism = E.SelfParallelism;
    Node.CoveragePct = CoverageOf(Node.Work);

    Kids.clear();
    for (RegionId C : P.children(Cur.Region)) {
      if (CoverageOf(Work[C]) < Opts.MinCoveragePct)
        Node.SelfWork += Work[C];
      else
        Kids.push_back(C);
    }
    std::sort(Kids.begin(), Kids.end(), [&](RegionId A, RegionId B) {
      return Work[A] != Work[B] ? Work[A] > Work[B] : A < B;
    });
    int Self = static_cast<int>(T.Nodes.size());
    for (size_t K = Kids.size(); K-- > 0;)
      Stack.push_back({Kids[K], Self, Cur.Depth + 1});
    T.Nodes.push_back(Node);
  }
  return T;
}

std::string report::frameLabel(const Module &M, const RegionProfileEntry &E) {
  const StaticRegion &R = M.Regions[E.Id];
  return formatString("%s %s [%s SP=%s]", R.Name.c_str(),
                      R.sourceSpan().c_str(), regionKindName(R.Kind),
                      formatFixed(E.SelfParallelism, 1).c_str());
}

// --- speedscope -------------------------------------------------------------

std::string report::exportSpeedscope(const ParallelismProfile &P,
                                     const RegionTree &T,
                                     const std::string &Name) {
  const Module &M = P.module();

  // One shared frame per static region (several tree nodes may share it).
  JsonValue Frames = JsonValue::makeArray();
  std::unordered_map<RegionId, int> FrameIndex;
  auto frameFor = [&](RegionId R) {
    auto It = FrameIndex.find(R);
    if (It != FrameIndex.end())
      return It->second;
    const StaticRegion &SR = M.Regions[R];
    JsonValue F = JsonValue::makeObject();
    F.set("name", JsonValue(frameLabel(M, P.entry(R))));
    if (!SR.File.empty())
      F.set("file", JsonValue(SR.File));
    if (SR.StartLine)
      F.set("line", JsonValue(SR.StartLine));
    int Idx = static_cast<int>(Frames.size());
    Frames.push(std::move(F));
    FrameIndex.emplace(R, Idx);
    return Idx;
  };

  JsonValue Samples = JsonValue::makeArray();
  JsonValue Weights = JsonValue::makeArray();
  uint64_t Total = 0;
  for (size_t I = 0; I < T.Nodes.size(); ++I) {
    const RegionTreeNode &N = T.Nodes[I];
    if (N.SelfWork == 0)
      continue;
    JsonValue Stack = JsonValue::makeArray();
    for (int Step : pathTo(T, static_cast<int>(I)))
      Stack.push(JsonValue(frameFor(T.Nodes[static_cast<size_t>(Step)].Region)));
    Samples.push(std::move(Stack));
    Weights.push(JsonValue(N.SelfWork));
    Total += N.SelfWork;
  }

  JsonValue Profile = JsonValue::makeObject();
  Profile.set("type", JsonValue("sampled"));
  Profile.set("name", JsonValue(Name));
  Profile.set("unit", JsonValue("none")); // Weights are abstract work units.
  Profile.set("startValue", JsonValue(0));
  Profile.set("endValue", JsonValue(Total));
  Profile.set("samples", std::move(Samples));
  Profile.set("weights", std::move(Weights));

  JsonValue Shared = JsonValue::makeObject();
  Shared.set("frames", std::move(Frames));

  JsonValue Doc = JsonValue::makeObject();
  Doc.set("$schema",
          JsonValue("https://www.speedscope.app/file-format-schema.json"));
  Doc.set("name", JsonValue(Name));
  Doc.set("activeProfileIndex", JsonValue(0));
  Doc.set("exporter", JsonValue("kremlin report"));
  Doc.set("shared", std::move(Shared));
  JsonValue Profiles = JsonValue::makeArray();
  Profiles.push(std::move(Profile));
  Doc.set("profiles", std::move(Profiles));
  return Doc.serialize() + "\n";
}

// --- collapsed stacks -------------------------------------------------------

std::string report::exportCollapsed(const ParallelismProfile &P,
                                    const RegionTree &T) {
  const Module &M = P.module();
  std::string Out;
  for (size_t I = 0; I < T.Nodes.size(); ++I) {
    const RegionTreeNode &N = T.Nodes[I];
    if (N.SelfWork == 0)
      continue;
    std::string Line;
    for (int Step : pathTo(T, static_cast<int>(I))) {
      if (!Line.empty())
        Line += ';';
      Line += collapsedLabel(
          M, P.entry(T.Nodes[static_cast<size_t>(Step)].Region));
    }
    Out += Line;
    Out += formatString(" %llu\n",
                        static_cast<unsigned long long>(N.SelfWork));
  }
  return Out;
}

// --- timeline ---------------------------------------------------------------

std::string report::exportTimeline(const ParallelismProfile &P,
                                   const DictionaryCompressor &Dict,
                                   const ReportOptions &Opts) {
  const Module &M = P.module();
  const std::vector<DynRegionSummary> &Alphabet = Dict.alphabet();
  std::vector<uint64_t> Mult = Dict.computeMultiplicities();

  // Regions sorted by descending total work; Top/MinCoverage applied here.
  std::vector<const RegionProfileEntry *> Order;
  for (const RegionProfileEntry &E : P.entries())
    if (E.Executed && E.CoveragePct >= Opts.MinCoveragePct)
      Order.push_back(&E);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const RegionProfileEntry *A,
                      const RegionProfileEntry *B) {
                     return A->TotalWork > B->TotalWork;
                   });
  if (Opts.Top && Order.size() > Opts.Top)
    Order.resize(Opts.Top);

  JsonValue Regions = JsonValue::makeArray();
  for (const RegionProfileEntry *E : Order) {
    const StaticRegion &SR = M.Regions[E->Id];
    JsonValue R = JsonValue::makeObject();
    R.set("region", JsonValue(E->Id));
    R.set("name", JsonValue(SR.Name));
    R.set("kind", JsonValue(regionKindName(SR.Kind)));
    R.set("source", JsonValue(SR.sourceSpan()));
    R.set("coverage_pct", JsonValue(E->CoveragePct));
    R.set("self_parallelism", JsonValue(E->SelfParallelism));
    R.set("total_parallelism", JsonValue(E->TotalParallelism));
    if (SR.Kind == RegionKind::Loop)
      R.set("loop_class", JsonValue(loopClassName(E->Class)));

    // One timeline point per unique dynamic behavior of this region: the
    // alphabet entry stands for Mult[i] identical dynamic visits.
    JsonValue Visits = JsonValue::makeArray();
    for (size_t I = 0; I < Alphabet.size(); ++I) {
      const DynRegionSummary &S = Alphabet[I];
      if (S.Static != E->Id)
        continue;
      JsonValue V = JsonValue::makeObject();
      V.set("work", JsonValue(S.Work));
      V.set("cp", JsonValue(static_cast<uint64_t>(S.Cp)));
      V.set("self_parallelism",
            JsonValue(summarySelfParallelism(S, Alphabet)));
      V.set("count", JsonValue(Mult[I]));
      Visits.push(std::move(V));
    }
    R.set("visits", std::move(Visits));
    Regions.push(std::move(R));
  }

  JsonValue Doc = JsonValue::makeObject();
  Doc.set("program_work", JsonValue(P.programWork()));
  Doc.set("regions", std::move(Regions));
  return Doc.serialize() + "\n";
}

// --- terminal tree ----------------------------------------------------------

std::string report::renderTree(const ParallelismProfile &P,
                               const RegionTree &T,
                               const ReportOptions &Opts) {
  const Module &M = P.module();
  TablePrinter Table;
  Table.setHeader({"region", "kind", "source", "work", "self%", "cov%",
                   "sp", "class", "visits"});
  size_t Rows = 0;
  for (const RegionTreeNode &N : T.Nodes) {
    if (Opts.Top && Rows >= Opts.Top)
      break;
    const RegionProfileEntry &E = P.entry(N.Region);
    const StaticRegion &SR = M.Regions[N.Region];
    double SelfPct =
        N.Work ? 100.0 * static_cast<double>(N.SelfWork) /
                     static_cast<double>(N.Work)
               : 0.0;
    Table.addRow({std::string(2 * N.Depth, ' ') + SR.Name,
                  regionKindName(SR.Kind), SR.sourceSpan(),
                  formatString("%llu",
                               static_cast<unsigned long long>(N.Work)),
                  formatFixed(SelfPct, 1), formatFixed(N.CoveragePct, 1),
                  formatFixed(N.SelfParallelism, 1),
                  SR.Kind == RegionKind::Loop ? loopClassName(E.Class) : "-",
                  formatString("%llu",
                               static_cast<unsigned long long>(N.Visits))});
    ++Rows;
  }
  return Table.render();
}

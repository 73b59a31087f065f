//===- profile/ParallelismProfile.cpp -------------------------------------===//

#include "profile/ParallelismProfile.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>

using namespace kremlin;

const char *kremlin::loopClassName(LoopClass C) {
  switch (C) {
  case LoopClass::NotLoop:
    return "-";
  case LoopClass::Doall:
    return "DOALL";
  case LoopClass::Doacross:
    return "DOACROSS";
  case LoopClass::Serial:
    return "serial";
  }
  return "?";
}

double
kremlin::summarySelfParallelism(const DynRegionSummary &S,
                                const std::vector<DynRegionSummary> &Alphabet) {
  if (S.Cp == 0)
    return 1.0;
  uint64_t ChildCp = 0;
  uint64_t ChildWork = 0;
  for (const auto &[C, Freq] : S.Children) {
    ChildCp += Alphabet[C].Cp * Freq;
    ChildWork += Alphabet[C].Work * Freq;
  }
  uint64_t SelfWork = S.Work >= ChildWork ? S.Work - ChildWork : 0;
  double SP = static_cast<double>(ChildCp + SelfWork) /
              static_cast<double>(S.Cp);
  return SP < 1.0 ? 1.0 : SP;
}

ParallelismProfile::ParallelismProfile(const Module &Mod,
                                       const DictionaryCompressor &Dict,
                                       double DoallTolerance)
    : M(&Mod) {
  Entries.resize(Mod.Regions.size());
  for (size_t R = 0; R < Mod.Regions.size(); ++R)
    Entries[R].Id = static_cast<RegionId>(R);

  // Per-region accumulation of work-weighted SP/TP plus DOALL voting.
  std::vector<double> SpAcc(Entries.size(), 0.0), TpAcc(Entries.size(), 0.0),
      WeightAcc(Entries.size(), 0.0), DoallVote(Entries.size(), 0.0);
  std::map<std::pair<RegionId, RegionId>, std::pair<uint64_t, uint64_t>>
      EdgeAcc;

  const std::vector<DynRegionSummary> &Alphabet = Dict.alphabet();
  std::vector<uint64_t> Mult = Dict.computeMultiplicities();
  for (size_t C = 0; C < Alphabet.size(); ++C) {
    if (Mult[C] == 0)
      continue;
    const DynRegionSummary &S = Alphabet[C];
    RegionProfileEntry &E = Entries[S.Static];
    E.Executed = true;
    E.Instances += Mult[C];
    E.TotalWork += S.Work * Mult[C];
    E.TotalCp += S.Cp * Mult[C];
    uint64_t Iters = S.numDynamicChildren();
    E.TotalChildren += Iters * Mult[C];

    double SP = summarySelfParallelism(S, Alphabet);
    double TP = S.Cp ? static_cast<double>(S.Work) /
                           static_cast<double>(S.Cp)
                     : 1.0;
    if (TP < 1.0)
      TP = 1.0;
    double Weight = static_cast<double>(S.Work) *
                    static_cast<double>(Mult[C]);
    if (Weight <= 0)
      Weight = static_cast<double>(Mult[C]);
    SpAcc[S.Static] += SP * Weight;
    TpAcc[S.Static] += TP * Weight;
    WeightAcc[S.Static] += Weight;

    // DOALL vote: self-parallelism equivalent to the iteration count.
    if (Iters >= 2 &&
        SP >= (1.0 - DoallTolerance) * static_cast<double>(Iters))
      DoallVote[S.Static] += Weight;

    for (const auto &[Child, Freq] : S.Children) {
      auto &Acc = EdgeAcc[{S.Static, Alphabet[Child].Static}];
      Acc.first += Alphabet[Child].Work * Freq * Mult[C];
      Acc.second += Freq * Mult[C];
    }
  }

  for (size_t R = 0; R < Entries.size(); ++R) {
    RegionProfileEntry &E = Entries[R];
    E.SelfWork = E.TotalWork;
    if (WeightAcc[R] > 0) {
      E.SelfParallelism = SpAcc[R] / WeightAcc[R];
      E.TotalParallelism = TpAcc[R] / WeightAcc[R];
    }
    if (Mod.Regions[R].Kind == RegionKind::Loop && E.Executed) {
      bool MajorityDoall = DoallVote[R] >= 0.5 * WeightAcc[R];
      double AvgIters = E.avgIterations();
      if (MajorityDoall && AvgIters >= 2.0)
        E.Class = LoopClass::Doall;
      else if (E.SelfParallelism >= 1.5)
        E.Class = LoopClass::Doacross;
      else
        E.Class = LoopClass::Serial;
    }
  }

  // Program work & root: sum over the root characters.
  for (const auto &[RootChar, Count] : Dict.roots()) {
    ProgramWork += Alphabet[RootChar].Work * Count;
    Root = Alphabet[RootChar].Static;
  }
  if (ProgramWork > 0) {
    for (RegionProfileEntry &E : Entries)
      E.CoveragePct = 100.0 * static_cast<double>(E.TotalWork) /
                      static_cast<double>(ProgramWork);
  }

  // Materialize the region graph. A summary's work covers its children's,
  // so self-work never saturates on a well-formed dictionary.
  for (const auto &[Key, Acc] : EdgeAcc) {
    RegionEdge Edge;
    Edge.Parent = Key.first;
    Edge.Child = Key.second;
    Edge.Work = Acc.first;
    Edge.Count = Acc.second;
    uint64_t &Self = Entries[Edge.Parent].SelfWork;
    Self -= std::min(Self, Edge.Work);
    Edges.push_back(Edge);
  }
  buildTree();
}

void ParallelismProfile::buildTree() {
  size_t N = Entries.size();
  Parent.assign(N, NoRegion);
  Children.assign(N, {});
  if (Root == NoRegion)
    return;

  // Heaviest parent other than the region itself. Edges are sorted by
  // (parent, child), so the strict comparison leaves a tie with the lowest
  // parent id. The root keeps no parent even if recursion re-enters it.
  std::vector<uint64_t> BestWork(N, 0);
  for (const RegionEdge &E : Edges) {
    if (E.Child == Root || E.Child == E.Parent)
      continue;
    if (Parent[E.Child] == NoRegion || E.Work > BestWork[E.Child]) {
      Parent[E.Child] = E.Parent;
      BestWork[E.Child] = E.Work;
    }
  }

  // A parent chain that comes back to a region it already passed is a
  // cycle (mutual recursion): every region on it moves under the root.
  std::vector<uint32_t> WalkOf(N, 0);
  uint32_t Walk = 0;
  for (RegionId R = 0; R < N; ++R) {
    if (!Entries[R].Executed || R == Root || WalkOf[R])
      continue;
    ++Walk;
    RegionId P = R;
    for (; P != NoRegion && P != Root && !WalkOf[P]; P = Parent[P])
      WalkOf[P] = Walk;
    if (P == NoRegion || WalkOf[P] != Walk)
      continue; // Reached the root, a dead end or an earlier walk.
    RegionId C = P;
    do {
      RegionId Next = Parent[C];
      Parent[C] = Root;
      C = Next;
    } while (C != P);
  }

  for (RegionId R = 0; R < N; ++R) {
    if (!Entries[R].Executed || R == Root)
      continue;
    if (Parent[R] == NoRegion)
      Parent[R] = Root; // No observed parent: another run's root.
    Children[Parent[R]].push_back(R);
  }

  // Depth-first from the root; each region's last child is visited first.
  std::vector<RegionId> Stack = {Root};
  while (!Stack.empty()) {
    RegionId R = Stack.back();
    Stack.pop_back();
    Preorder.push_back(R);
    Stack.insert(Stack.end(), Children[R].begin(), Children[R].end());
  }
}

std::string ParallelismProfile::toText() const {
  std::string Out;
  Out += formatString("program work: %llu\n",
                      static_cast<unsigned long long>(ProgramWork));
  for (const RegionProfileEntry &E : Entries) {
    if (!E.Executed)
      continue;
    const StaticRegion &R = M->Regions[E.Id];
    Out += formatString(
        "r%-4u %-5s %-20s work=%-12llu cp=%-12llu inst=%-8llu SP=%-8.2f "
        "TP=%-8.2f cov=%6.2f%% %s\n",
        E.Id, regionKindName(R.Kind), R.sourceSpan().c_str(),
        static_cast<unsigned long long>(E.TotalWork),
        static_cast<unsigned long long>(E.TotalCp),
        static_cast<unsigned long long>(E.Instances), E.SelfParallelism,
        E.TotalParallelism, E.CoveragePct, loopClassName(E.Class));
  }
  return Out;
}

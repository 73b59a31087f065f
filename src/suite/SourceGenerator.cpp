//===- suite/SourceGenerator.cpp ------------------------------------------===//

#include "suite/SourceGenerator.h"

#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

using namespace kremlin;

const char *kremlin::siteKindName(SiteKind Kind) {
  switch (Kind) {
  case SiteKind::HotDoall:
    return "hot-doall";
  case SiteKind::SmallDoall:
    return "small-doall";
  case SiteKind::ColdDoall:
    return "cold-doall";
  case SiteKind::Doacross:
    return "doacross";
  case SiteKind::SerialChain:
    return "serial";
  case SiteKind::IlpSerial:
    return "ilp-serial";
  case SiteKind::ReductionHeavy:
    return "reduction-heavy";
  case SiteKind::ReductionLight:
    return "reduction-light";
  case SiteKind::CoarseNest:
    return "coarse-nest";
  case SiteKind::ChildrenNest:
    return "children-nest";
  }
  return "?";
}

BenchmarkSpec kremlin::cyclingSiteSpec(unsigned Sites, unsigned SitesPerKernel,
                                       unsigned Salt) {
  BenchmarkSpec S;
  S.Name = formatString("cycle%u_%u_%u", Sites, SitesPerKernel, Salt);
  S.SitesPerKernel = SitesPerKernel;
  for (unsigned I = 0; I < Sites; ++I) {
    SiteSpec Site;
    Site.Kind = static_cast<SiteKind>((I + Salt) % 10);
    Site.Work = 1 + (5 * I + Salt) % 12;
    Site.InnerCount = 1 + (I + Salt) % 3;
    Site.Iters = 16 + (37 * I + 11 * Salt) % 497;
    Site.InnerIters = 8 + (13 * I + Salt) % 57;
    Site.InnerDoacross = (I / 10 + Salt) % 2 == 1;
    S.Sites.push_back(Site);
  }
  return S;
}

std::vector<unsigned> GeneratedBenchmark::manualLines() const {
  std::vector<unsigned> Lines;
  for (const GeneratedLoop &L : Loops)
    if (L.Manual)
      Lines.push_back(L.Line);
  return Lines;
}

namespace {

/// Text emitter with 1-based line tracking.
class CodeWriter {
public:
  /// Emits one line (newline appended).
  void line(const std::string &Text) {
    Buf += Text;
    Buf += '\n';
    ++Next;
  }
  /// The line number the next emit will land on.
  unsigned nextLine() const { return Next; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
  unsigned Next = 1;
};

/// Emits \p Work dependent arithmetic stages on scalar x. The stage mix
/// cycles so consecutive stages differ; each stage depends on the previous
/// one, so the per-iteration chain length tracks Work.
void emitStages(CodeWriter &W, unsigned Work, const std::string &Indent) {
  static const char *Stages[] = {
      "x = x * 3 + i + 1;",
      "x = x + x / 7;",
      "x = x * 2 - x / 5;",
      "x = x + x % 13 + 2;",
  };
  for (unsigned S = 0; S < Work; ++S)
    W.line(Indent + Stages[S % 4]);
}

/// Emits one site's loops inside a kernel function. \p Array / \p Aux are
/// the site's dedicated global array names.
void emitSite(CodeWriter &W, const SiteSpec &Site, unsigned SiteIndex,
              const std::string &Array, const std::string &Aux,
              std::vector<GeneratedLoop> &Loops) {
  auto Record = [&](bool IsOuter, bool Manual) {
    GeneratedLoop L;
    L.Line = W.nextLine();
    L.SiteIndex = SiteIndex;
    L.Kind = Site.Kind;
    L.IsOuter = IsOuter;
    L.Manual = Manual;
    Loops.push_back(L);
  };
  std::string N = formatString("%u", Site.Iters);
  std::string IN = formatString("%u", Site.InnerIters);

  switch (Site.Kind) {
  case SiteKind::HotDoall:
  case SiteKind::SmallDoall:
    Record(/*IsOuter=*/true, Site.ManualOuter);
    W.line("  for (int i = 0; i < " + N + "; i = i + 1) {");
    W.line("    int x = " + Array + "[i] + t;");
    emitStages(W, Site.Work, "    ");
    W.line("    " + Array + "[i] = x + i;");
    W.line("  }");
    break;

  case SiteKind::ColdDoall:
    W.line("  if (t == 0) {");
    Record(true, Site.ManualOuter);
    W.line("    for (int i = 0; i < " + N + "; i = i + 1) {");
    W.line("      int x = i * 5 + 3;");
    emitStages(W, Site.Work, "      ");
    W.line("      " + Array + "[i] = x;");
    W.line("    }");
    W.line("  }");
    break;

  case SiteKind::Doacross:
    Record(true, Site.ManualOuter);
    W.line("  for (int i = 1; i < " + N + "; i = i + 1) {");
    W.line("    int x = i * 3 + t;");
    emitStages(W, Site.Work, "    ");
    W.line("    " + Array + "[i] = " + Array + "[i - 1] / 4 + x;");
    W.line("  }");
    // Carry the boundary value into the next call: without this, each
    // call's chain would be independent and CPA would (correctly!) let
    // successive time steps pipeline.
    W.line("  " + Array + "[0] = " + Array + "[" +
           formatString("%u", Site.Iters - 1) + "] % 65521;");
    break;

  case SiteKind::SerialChain:
    W.line("  int c" + formatString("%u", SiteIndex) + " = " + Array +
           "[0] + t;");
    Record(true, Site.ManualOuter);
    W.line("  for (int i = 1; i < " + N + "; i = i + 1) {");
    {
      std::string C = formatString("c%u", SiteIndex);
      // Every stage feeds the next through C, and the divisor depends on C
      // itself, so no reduction/induction pattern can legally break it.
      for (unsigned S = 0; S < std::max(1u, Site.Work); ++S)
        W.line("    " + C + " = " + C + " * 3 + " + C + " / (" + C +
               " % 7 + 2);");
      W.line("    " + Array + "[i] = " + C + ";");
    }
    W.line("  }");
    // Boundary carry (see Doacross): chains consecutive calls.
    W.line("  " + Array + "[0] = " + Array + "[" +
           formatString("%u", Site.Iters - 1) + "] % 65521;");
    break;

  case SiteKind::IlpSerial: {
    // Eight independent 4-op chains per iteration, combined by a balanced
    // tree into the loop-carried value: per-iteration work ~ 5-6x the
    // serial path, so work/cp (total-parallelism) is high while
    // self-parallelism stays ~1.
    std::string C = formatString("q%u", SiteIndex);
    W.line("  int " + C + " = " + Array + "[0] + t;");
    Record(true, Site.ManualOuter);
    W.line("  for (int i = 1; i < " + N + "; i = i + 1) {");
    for (unsigned Lane = 1; Lane <= 8; ++Lane) {
      std::string X = formatString("x%u", Lane);
      W.line(formatString("    int %s = %s * %u + %u;", X.c_str(), C.c_str(),
                          Lane + 1, Lane));
      W.line(formatString("    %s = %s + %s / %u;", X.c_str(), X.c_str(),
                          X.c_str(), Lane + 2));
      W.line(formatString("    %s = %s * 2 - %s %% %u;", X.c_str(),
                          X.c_str(), X.c_str(), Lane + 4));
    }
    W.line("    " + C + " = ((x1 + x2) + (x3 + x4)) + "
           "((x5 + x6) + (x7 + x8));");
    W.line("    " + Array + "[i] = " + C + ";");
    W.line("  }");
    // Boundary carry (see Doacross): chains consecutive calls.
    W.line("  " + Array + "[0] = " + Array + "[" +
           formatString("%u", Site.Iters - 1) + "] % 65521;");
    break;
  }

  case SiteKind::ReductionHeavy:
  case SiteKind::ReductionLight: {
    std::string S = formatString("s%u", SiteIndex);
    W.line("  int " + S + " = " + Array + "[0];");
    Record(true, Site.ManualOuter);
    W.line("  for (int i = 0; i < " + N + "; i = i + 1) {");
    W.line("    int x = " + Array + "[i] + t;");
    emitStages(W, Site.Work, "    ");
    W.line("    " + S + " = " + S + " + x;");
    W.line("  }");
    W.line("  " + Array + "[0] = " + S + " % 65536;");
    break;
  }

  case SiteKind::CoarseNest: {
    // Outer DOALL over disjoint slices; per-j self work (double the inner
    // stage count) keeps the outer region's gain above the sum of its
    // inner loops' gains, so the planner recommends the coarse region.
    Record(true, Site.ManualOuter);
    W.line("  for (int j = 0; j < " + N + "; j = j + 1) {");
    W.line("    int x = " + Aux + "[j] + t;");
    W.line("    int i = j;");
    emitStages(W, Site.Work * 2, "    ");
    W.line("    " + Aux + "[j] = x;");
    for (unsigned Inner = 0; Inner < Site.InnerCount; ++Inner) {
      Record(false, Site.ManualInner);
      if (Site.InnerDoacross) {
        // Cross-iteration chain within each slice: the inner loop's SP is
        // capped near (3*Work+8)/4 while the outer j loop stays DOALL.
        W.line("    for (int i2 = 1; i2 < " + IN + "; i2 = i2 + 1) {");
        W.line("      int i = i2;");
        W.line("      int x = i2 * 3 + " + Aux + "[j] + " +
               formatString("%u", Inner) + ";");
        emitStages(W, Site.Work, "      ");
        W.line("      " + Array + "[j * " + IN + " + i2] = " + Array +
               "[j * " + IN + " + i2 - 1] / 4 + x;");
        W.line("    }");
      } else {
        W.line("    for (int i2 = 0; i2 < " + IN + "; i2 = i2 + 1) {");
        W.line("      int i = i2;");
        W.line("      int x = " + Array + "[j * " + IN + " + i2] + " + Aux +
               "[j] + " + formatString("%u", Inner) + ";");
        emitStages(W, Site.Work, "      ");
        W.line("      " + Array + "[j * " + IN + " + i2] = x + i2;");
        W.line("    }");
      }
    }
    W.line("  }");
    break;
  }

  case SiteKind::ChildrenNest: {
    // Serial-ish spine across j; the heavy inner loops are DOALL. The
    // outer still clears the SP threshold, but the children's combined
    // gain beats it — the case where greedy planning picks the wrong
    // region (§5.1, ft/lu).
    Record(true, Site.ManualOuter);
    W.line("  for (int j = 1; j < " + N + "; j = j + 1) {");
    W.line("    " + Aux + "[j] = " + Aux + "[j - 1] / 3 + j + t;");
    for (unsigned Inner = 0; Inner < Site.InnerCount; ++Inner) {
      Record(false, Site.ManualInner);
      W.line("    for (int i2 = 0; i2 < " + IN + "; i2 = i2 + 1) {");
      W.line("      int i = i2;");
      W.line("      int x = " + Array + "[j * " + IN + " + i2] + " + Aux +
             "[j] + " + formatString("%u", Inner) + ";");
      emitStages(W, Site.Work, "      ");
      W.line("      " + Array + "[j * " + IN + " + i2] = x + i2;");
      W.line("    }");
    }
    W.line("  }");
    break;
  }
  }
}

} // namespace

GeneratedBenchmark kremlin::generateBenchmark(const BenchmarkSpec &Spec) {
  GeneratedBenchmark Out;
  Out.Name = Spec.Name;
  CodeWriter W;

  W.line("// Synthetic benchmark '" + Spec.Name +
         "' generated by the Kremlin reproduction suite.");
  // Cross-kernel/cross-step chain cell: kernels pass results through it,
  // so time steps (and kernels within a step) genuinely serialize — as in
  // the real NPB codes, where kernels pipeline through shared arrays. Its
  // update form is deliberately not a breakable reduction.
  W.line("int zsync[4];");

  // Globals: one (or two) arrays per site.
  for (size_t S = 0; S < Spec.Sites.size(); ++S) {
    const SiteSpec &Site = Spec.Sites[S];
    uint64_t Words = Site.Iters;
    if (Site.Kind == SiteKind::CoarseNest ||
        Site.Kind == SiteKind::ChildrenNest) {
      Words = static_cast<uint64_t>(Site.Iters) * Site.InnerIters;
      W.line(formatString("int h%zu[%u];", S, Site.Iters));
    }
    W.line(formatString("int g%zu[%llu];", S,
                        static_cast<unsigned long long>(Words)));
  }

  // Kernels.
  unsigned PerKernel = std::max(1u, Spec.SitesPerKernel);
  unsigned NumKernels =
      (static_cast<unsigned>(Spec.Sites.size()) + PerKernel - 1) /
      PerKernel;
  for (unsigned K = 0; K < NumKernels; ++K) {
    W.line("");
    W.line(formatString("void k%u(int t) {", K));
    // The kernel's inputs depend on the chain cell...
    W.line("  t = t + zsync[0] % 2;");
    unsigned First = K * PerKernel;
    for (unsigned S = First;
         S < std::min<size_t>((K + 1) * PerKernel, Spec.Sites.size()); ++S)
      emitSite(W, Spec.Sites[S], S, formatString("g%u", S),
               formatString("h%u", S), Out.Loops);
    // ...and the step's results feed the chain cell — emitted only in the
    // last kernel so kernels stay mutually parallel within a step (as
    // independent phases are) while consecutive steps serialize. The cell
    // read must be one the chosen site writes LATE (its final iteration's
    // element, or a reduction's post-loop store), so the chain passes
    // through the site's full execution; the div-form self-update is not a
    // breakable reduction pattern.
    if (K + 1 == NumKernels) {
      unsigned Chosen = First;
      for (unsigned S = First;
           S < std::min<size_t>((K + 1) * PerKernel, Spec.Sites.size());
           ++S)
        if (Spec.Sites[S].Kind != SiteKind::ColdDoall) {
          Chosen = S;
          break;
        }
      const SiteSpec &CS = Spec.Sites[Chosen];
      uint64_t LateIdx;
      switch (CS.Kind) {
      case SiteKind::ReductionHeavy:
      case SiteKind::ReductionLight:
        LateIdx = 0; // Post-loop store of the sum.
        break;
      case SiteKind::CoarseNest:
      case SiteKind::ChildrenNest:
        LateIdx = static_cast<uint64_t>(CS.Iters) * CS.InnerIters - 1;
        break;
      default:
        LateIdx = CS.Iters - 1;
        break;
      }
      W.line(formatString("  zsync[0] = g%u[%llu] %% 5 + "
                          "zsync[0] / (zsync[0] %% 3 + 2);",
                          Chosen, static_cast<unsigned long long>(LateIdx)));
    }
    W.line("}");
  }

  // main: serial time-step loop (each site reads what it wrote last step).
  W.line("");
  W.line("int main() {");
  W.line(formatString("  for (int t = 0; t < %u; t = t + 1) {",
                      Spec.Timesteps));
  for (unsigned K = 0; K < NumKernels; ++K)
    W.line(formatString("    k%u(t);", K));
  W.line("  }");
  W.line("  return 0;");
  W.line("}");

  Out.Source = W.take();
  return Out;
}

std::vector<RegionId>
kremlin::loopRegionsAtLines(const Module &M,
                            const std::vector<unsigned> &Lines) {
  std::vector<RegionId> Regions;
  for (unsigned Line : Lines) {
    for (const StaticRegion &R : M.Regions) {
      if (R.Kind == RegionKind::Loop && R.StartLine == Line) {
        Regions.push_back(R.Id);
        break;
      }
    }
  }
  return Regions;
}

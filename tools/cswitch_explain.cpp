//===- cswitch_explain.cpp - Decision provenance explainer ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Companion CLI of the decision provenance ledger (DESIGN.md §14):
//
//   cswitch_explain live [--url http://127.0.0.1:9100]
//       Fetches /explain.json and prints a one-row-per-site summary:
//       abstraction, selection rule, lifetime decisions, and the latest
//       retained outcome with its margin.
//
//   cswitch_explain dump [--url ...] [--out explain.json]
//       Fetches the raw cswitch-explain-v1 document and writes it to
//       --out (default cswitch_explain.json; `-` for stdout), after
//       validating it parses.
//
//   cswitch_explain why <site> [--url ...]
//       The full story of one allocation site: every retained decision
//       with its adaptive-gate evidence, thread estimate, criterion
//       thresholds, and a ranked per-candidate cost table (per-dimension
//       totals, pre-fold components, criterion ratios, margins).
//
// The target process must run with CSWITCH_EXPLAIN=1 (or call
// obs::ProvenanceRegistry::setEnabled(true)) for the ledger to contain
// records; the endpoint itself is always served.
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsHttp.h"
#include "obs/Provenance.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace cswitch;

namespace {

/// GETs \p Path from the endpoint at \p Url through the obs client
/// (timeouts, bounded retries, a response cap far above any real
/// document); fills \p Body with a 200 answer's body, or says why not.
bool fetch(std::string Url, const char *Path, std::string &Body) {
  while (!Url.empty() && Url.back() == '/')
    Url.pop_back();
  obs::HttpResponse Response;
  std::string Error;
  if (obs::httpGet(Url + Path, Response,
                   obs::HttpOptions().maxResponseBytes(64u << 20), &Error) &&
      Response.Status != 200)
    Error = Path + (" answered HTTP " + std::to_string(Response.Status));
  if (!Error.empty()) {
    std::fprintf(stderr, "cswitch_explain: %s\n", Error.c_str());
    return false;
  }
  Body = std::move(Response.Body);
  return true;
}

/// Fetches and parses /explain.json from \p Url. Returns false (with a
/// diagnostic) on fetch or decode failure. \p Raw receives the
/// untouched document for `dump`.
bool fetchExplain(const std::string &Url, obs::ExplainDocument &Doc,
                  std::string *Raw = nullptr) {
  std::string Body;
  if (!fetch(Url, "/explain.json", Body))
    return false;
  std::string Error;
  if (!obs::parseExplainDocument(Body, Doc, &Error)) {
    std::fprintf(stderr, "cswitch_explain: bad explain document: %s\n",
                 Error.c_str());
    return false;
  }
  if (Raw)
    *Raw = std::move(Body);
  return true;
}

/// Candidate display name: the ledger's variant list by index, else the
/// bare index.
std::string variantName(const obs::SiteLedgerSnapshot &Site, int Index) {
  if (Index < 0)
    return "-";
  if (static_cast<size_t>(Index) < Site.Variants.size())
    return Site.Variants[static_cast<size_t>(Index)];
  std::string Name("#");
  Name += std::to_string(Index);
  return Name;
}

void printProvenance(const obs::ExplainDocument &Doc) {
  const obs::ExplainProvenance &P = Doc.Provenance;
  std::printf("ledger: %s\n", Doc.Enabled ? "enabled" : "disabled");
  if (P.ModelInstalls > 0)
    std::printf("model:  %s\n", P.ModelSource.c_str());
  if (!P.StorePath.empty())
    std::printf("store:  %s (loads %llu, warm starts %llu)\n",
                P.StorePath.c_str(),
                static_cast<unsigned long long>(P.StoreLoads),
                static_cast<unsigned long long>(P.StoreWarmStarts));
}

int runLive(const std::string &Url) {
  obs::ExplainDocument Doc;
  if (!fetchExplain(Url, Doc))
    return 1;
  printProvenance(Doc);
  std::printf("\n%-32s %-6s %-24s %9s  %-18s %10s\n", "SITE", "KIND", "RULE",
              "DECISIONS", "LAST OUTCOME", "MARGIN");
  for (const obs::SiteLedgerSnapshot &Site : Doc.Sites) {
    const char *Outcome = "-";
    double Margin = 0.0;
    if (!Site.Records.empty()) {
      const obs::DecisionRecord &Last = Site.Records.back();
      Outcome = obs::decisionOutcomeName(Last.Outcome);
      Margin = Last.Margin;
    }
    std::printf("%-32.32s %-6.6s %-24.24s %9llu  %-18s %10.4f\n",
                Site.Name.c_str(), Site.Abstraction.c_str(),
                Site.Rule.c_str(),
                static_cast<unsigned long long>(Site.Decisions), Outcome,
                Margin);
  }
  if (Doc.Sites.empty())
    std::printf("(no recorded decisions%s)\n",
                Doc.Enabled ? "" : " — run the target with CSWITCH_EXPLAIN=1");
  return 0;
}

int runDump(const std::string &Url, const std::string &OutPath) {
  obs::ExplainDocument Doc;
  std::string Raw;
  if (!fetchExplain(Url, Doc, &Raw))
    return 1;
  if (OutPath == "-") {
    std::fwrite(Raw.data(), 1, Raw.size(), stdout);
    return 0;
  }
  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cswitch_explain: cannot write %s\n",
                 OutPath.c_str());
    return 1;
  }
  size_t Written = std::fwrite(Raw.data(), 1, Raw.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == Raw.size();
  if (!Ok) {
    std::fprintf(stderr, "cswitch_explain: short write to %s\n",
                 OutPath.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu bytes (%zu sites) to %s\n", Raw.size(),
               Doc.Sites.size(), OutPath.c_str());
  return 0;
}

void printRecord(const obs::SiteLedgerSnapshot &Site,
                 const obs::DecisionRecord &R) {
  std::printf("decision #%llu — %s (round %u)\n",
              static_cast<unsigned long long>(R.Sequence),
              obs::decisionOutcomeName(R.Outcome), R.Round);
  std::printf("  current %s -> chosen %s   margin %.4f   keep streak %u\n",
              variantName(Site, R.CurrentVariant).c_str(),
              variantName(Site, R.ChosenVariant).c_str(), R.Margin,
              R.ConsecutiveKeeps);
  std::printf("  threads %.2f%s   adaptive: threshold %.0f, sizes "
              "[%.0f, %.0f]%s%s\n",
              R.ContendedThreads,
              R.ContentionFolded ? " (contention folded into time)" : "",
              R.AdaptiveThreshold, R.MinMaxSize, R.MaxMaxSize,
              R.AdaptiveStraddles ? ", straddles" : "",
              R.AdaptiveWide ? ", wide" : "");
  if (R.Outcome == obs::DecisionOutcome::WarmStartSkipped) {
    std::printf("  (seeded from the selection store; no analysis ran)\n\n");
    return;
  }
  std::printf("  criteria:");
  for (size_t C = 0; C != R.NumCriteria; ++C)
    std::printf(" %s<=%.3g",
                obs::explainDimensionName(R.Criteria[C].Dimension),
                R.Criteria[C].Threshold);
  std::printf("\n");

  // Rank candidates by their first-criterion total (the rule's primary
  // axis), eligible candidates first.
  size_t Dim = R.NumCriteria != 0 ? R.Criteria[0].Dimension : 0;
  if (Dim >= obs::ExplainNumDimensions)
    Dim = 0;
  std::vector<size_t> Order;
  for (size_t I = 0; I != R.NumCandidates; ++I)
    Order.push_back(I);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const obs::CandidateExplanation &CA = R.Candidates[A];
    const obs::CandidateExplanation &CB = R.Candidates[B];
    if (CA.Eligible != CB.Eligible)
      return CA.Eligible;
    return CA.Total[Dim] < CB.Total[Dim];
  });
  std::printf("  %-20s %-9s %12s %12s %12s %12s %8s\n", "CANDIDATE", "STATE",
              "TIME", "ALLOC", "ENERGY", "CONTENTION", "RATIO");
  for (size_t I : Order) {
    const obs::CandidateExplanation &C = R.Candidates[I];
    const char *State = !C.Covered    ? "uncov"
                        : !C.Eligible ? "inelig"
                        : C.Qualified ? "QUALIF"
                                      : "elig";
    char Marker = static_cast<int16_t>(I) == R.ChosenVariant    ? '*'
                  : static_cast<int16_t>(I) == R.CurrentVariant ? '=' : ' ';
    std::printf(" %c%-20.20s %-9s %12.4g %12.4g %12.4g %12.4g", Marker,
                variantName(Site, static_cast<int>(I)).c_str(), State,
                C.Total[0], C.Total[1], C.Total[2], C.Total[3]);
    if (R.NumCriteria != 0 && C.Ratio[0] >= 0.0)
      std::printf(" %8.4f", C.Ratio[0]);
    else
      std::printf(" %8s", "-");
    std::printf("\n");
    if (R.ContentionFolded && C.Eligible)
      std::printf("  %-20s %-9s %12.4g %12s %12s %12.4g (pre-fold)\n", "",
                  "", C.PreFold[0], "", "", C.PreFold[3]);
  }
  std::printf("  (* chosen, = current)\n\n");
}

int runWhy(const std::string &Url, const std::string &SiteName) {
  obs::ExplainDocument Doc;
  if (!fetchExplain(Url, Doc))
    return 1;
  const obs::SiteLedgerSnapshot *Site = nullptr;
  for (const obs::SiteLedgerSnapshot &S : Doc.Sites)
    if (S.Name == SiteName)
      Site = &S;
  if (!Site) {
    std::fprintf(stderr,
                 "cswitch_explain: no ledger for site '%s' (%zu sites "
                 "recorded%s)\n",
                 SiteName.c_str(), Doc.Sites.size(),
                 Doc.Enabled ? "" : "; ledger disabled — set "
                                    "CSWITCH_EXPLAIN=1 on the target");
    return 1;
  }
  printProvenance(Doc);
  std::printf("\nsite %s (%s, rule %s) — %llu decisions, %zu retained\n\n",
              Site->Name.c_str(), Site->Abstraction.c_str(),
              Site->Rule.c_str(),
              static_cast<unsigned long long>(Site->Decisions),
              Site->Records.size());
  for (const obs::DecisionRecord &R : Site->Records)
    printRecord(*Site, R);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cswitch_explain live [--url http://127.0.0.1:9100]\n"
      "  cswitch_explain dump [--url ...] [--out explain.json]\n"
      "  cswitch_explain why <site> [--url ...]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Mode = Argv[1];
  std::string Url = "http://127.0.0.1:9100";
  std::string OutPath = "cswitch_explain.json";
  std::string SiteName;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--url" && I + 1 < Argc)
      Url = Argv[++I];
    else if (Arg == "--out" && I + 1 < Argc)
      OutPath = Argv[++I];
    else if (!Arg.empty() && Arg[0] != '-' && SiteName.empty())
      SiteName = Arg;
    else
      return usage();
  }
  if (Mode == "live")
    return runLive(Url);
  if (Mode == "dump")
    return runDump(Url, OutPath);
  if (Mode == "why") {
    if (SiteName.empty())
      return usage();
    return runWhy(Url, SiteName);
  }
  return usage();
}

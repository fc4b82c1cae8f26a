//===- cswitch_advisor.cpp - Offline recommendation tool ------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The offline-selection workflow of the tools the paper positions itself
// against (§6, Chameleon/Brainy): read the operation trace of a
// profiling run (cswitch-optrace-v1, recorded with
// ContextOptions::recorder or `table5_dacapo --record`), aggregate it per
// site, evaluate it against a performance model, and print a per-site
// recommendation report.
//
//   cswitch_advisor trace.optrace                   # Rtime, built-in model
//   cswitch_advisor --rule ralloc trace.optrace
//   cswitch_advisor --model data/cswitch_model.txt trace.optrace
//   cswitch_advisor --json report.json trace.optrace  # machine-readable
//   ... | cswitch_advisor -                         # trace from stdin
//
// When `--model` is absent the `CSWITCH_MODEL` environment variable is
// consulted; only when neither names a file does the built-in default
// model apply.
//
//===----------------------------------------------------------------------===//

#include "model/DefaultModel.h"
#include "replay/Replayer.h"
#include "support/MetricsExport.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace cswitch;

namespace {

/// Machine-readable twin of the printed report.
std::string reportToJson(const SelectionRule &Rule,
                         const std::vector<SiteRecommendation> &Report) {
  std::string Out = "{\n  \"schema\": \"cswitch-advisor-v1\",\n  \"rule\": \"" +
                    jsonEscape(Rule.Name) + "\",\n  \"sites\": [\n";
  for (size_t I = 0; I != Report.size(); ++I) {
    const SiteRecommendation &Rec = Report[I];
    Out += "    {\"site\": \"" + jsonEscape(Rec.Site) + "\", \"declared\": \"" +
           jsonEscape(VariantId{Rec.Kind, Rec.DeclaredVariantIndex}.name()) +
           "\", ";
    if (Rec.RecommendedVariantIndex)
      Out += "\"recommended\": \"" +
             jsonEscape(
                 VariantId{Rec.Kind, *Rec.RecommendedVariantIndex}.name()) +
             "\", ";
    else
      Out += "\"recommended\": null, ";
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "\"instances\": %zu, \"time_ratio\": %.4f, "
                  "\"alloc_ratio\": %.4f, \"energy_ratio\": %.4f}",
                  Rec.InstancesProfiled,
                  Rec.improvementRatio(CostDimension::Time),
                  Rec.improvementRatio(CostDimension::Alloc),
                  Rec.improvementRatio(CostDimension::Energy));
    Out += Buf;
    Out += I + 1 == Report.size() ? "\n" : ",\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

int usage(const std::string &Problem) {
  std::fprintf(stderr, "cswitch_advisor: %s\n", Problem.c_str());
  std::fprintf(stderr, "usage: cswitch_advisor [--rule "
                       "rtime|ralloc|renergy|impossible] [--model <file>] "
                       "[--json <file>] <trace.optrace | ->\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string RuleName = "rtime";
  std::string ModelPath;
  std::string JsonPath;
  const char *TracePath = nullptr;
  // A misspelled flag, a flag without its value or a second path is a
  // usage error, never a trace path: silently running the default rule
  // would look like a successful run.
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    std::string *Value = std::strcmp(Arg, "--rule") == 0    ? &RuleName
                         : std::strcmp(Arg, "--model") == 0 ? &ModelPath
                         : std::strcmp(Arg, "--json") == 0  ? &JsonPath
                                                            : nullptr;
    if (Value) {
      if (I + 1 == Argc)
        return usage(std::string("missing value for ") + Arg);
      *Value = Argv[++I];
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      return usage(std::string("unknown flag ") + Arg);
    } else if (TracePath) {
      return usage(std::string("unexpected second trace path ") + Arg);
    } else {
      TracePath = Arg;
    }
  }
  if (!TracePath)
    return usage("missing trace path");

  SelectionRule Rule;
  if (!SelectionRule::fromName(RuleName, Rule)) {
    std::fprintf(stderr, "error: unknown rule '%s'\n", RuleName.c_str());
    return 2;
  }

  if (ModelPath.empty()) {
    const char *EnvPath = std::getenv("CSWITCH_MODEL");
    if (EnvPath && EnvPath[0])
      ModelPath = EnvPath;
  }
  PerformanceModel Model;
  std::string ModelError;
  if (!loadModelFile(ModelPath, Model, &ModelError)) {
    std::fprintf(stderr, "error: cannot load model %s (%s)\n",
                 ModelPath.c_str(), ModelError.c_str());
    return 1;
  }

  // `-` reads the trace from stdin so recorders can pipe straight in.
  // A trace without sites exits non-zero too: CI pipelines gate on the
  // exit status, and a broken upstream stage usually records nothing.
  OpTrace Trace;
  std::string TraceError;
  bool Read = std::strcmp(TracePath, "-") == 0
                  ? readTrace(std::cin, Trace, &TraceError)
                  : readTraceFromFile(TracePath, Trace, &TraceError);
  if (!Read) {
    std::fprintf(stderr, "error: cannot read trace %s (%s)\n", TracePath,
                 TraceError.c_str());
    return 1;
  }
  std::vector<SiteProfile> Sites = aggregateTrace(Trace);
  if (Sites.empty()) {
    std::fprintf(stderr, "error: trace %s contains no sites\n", TracePath);
    return 1;
  }

  std::vector<SiteRecommendation> Report =
      adviseOffline(Sites, Model, Rule);
  std::printf("offline recommendations (%s, %zu sites):\n",
              Rule.Name.c_str(), Report.size());
  for (const SiteRecommendation &Rec : Report)
    std::printf("  %s\n", Rec.toString().c_str());
  if (!JsonPath.empty()) {
    if (!writeTextFile(JsonPath, reportToJson(Rule, Report))) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("[wrote %s]\n", JsonPath.c_str());
  }
  return 0;
}

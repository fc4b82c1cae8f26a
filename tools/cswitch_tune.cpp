//===- cswitch_tune.cpp - Offline autotuner CLI ---------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Front-end of the src/tuner/ subsystem (DESIGN.md §13): search tuned
// selection-machinery parameters over a recorded trace corpus, inspect
// the resulting `cswitch-tuning-v2` artifacts, and exercise the runtime
// load path.
//
//   cswitch_tune tune --out tuned.cstune trace1.optrace trace2.optrace
//   cswitch_tune tune --model data/cswitch_model.txt --out t.cstune t.optrace
//   cswitch_tune info tuned.cstune             # provenance + parameters
//   cswitch_tune apply tuned.cstune            # validate the runtime path
//   cswitch_tune diff tuned.cstune             # vs paper defaults
//   cswitch_tune diff old.cstune new.cstune    # artifact vs artifact
//
// A trace path of - reads the binary trace from stdin.
//
//===----------------------------------------------------------------------===//

#include "core/Switch.h"
#include "model/DefaultModel.h"
#include "support/MetricsExport.h"
#include "tuner/Tuner.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace cswitch;
using namespace cswitch::tuner;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: cswitch_tune <subcommand> [options]\n"
      "\n"
      "subcommands:\n"
      "  tune   search tuned parameters over a trace corpus\n"
      "  info   describe a cswitch-tuning-v2 artifact\n"
      "  apply  load an artifact through the runtime path (exit 0 = ok)\n"
      "  diff   compare an artifact against the paper defaults (or a\n"
      "         second artifact)\n"
      "\n"
      "tune options:\n"
      "  --out <file>          artifact to write (required)\n"
      "  --model <file>        performance model (default: built-in)\n"
      "  --time-weight <w>     fitness weight of the time ratio (1.0)\n"
      "  --alloc-weight <w>    fitness weight of the alloc ratio (0.25)\n"
      "  --switch-penalty <w>  penalty per switch per instance (0)\n"
      "  --json <file|->       machine-readable search report\n"
      "  <trace ...>           recorded .optrace corpus (- = stdin)\n");
  return 2;
}

bool loadTraceArg(const std::string &Path, OpTrace &Out) {
  std::string Error;
  bool Ok = Path == "-" ? readTrace(std::cin, Out, &Error)
                        : readTraceFromFile(Path, Out, &Error);
  if (!Ok)
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                 Error.empty() ? "cannot read trace" : Error.c_str());
  return Ok;
}

bool emitOutput(const std::string &Path, const std::string &Content) {
  if (Path == "-") {
    std::fwrite(Content.data(), 1, Content.size(), stdout);
    return true;
  }
  if (!writeTextFile(Path, Content)) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("[wrote %s]\n", Path.c_str());
  return true;
}

bool loadArtifactArg(const std::string &Path, TuningArtifact &Out) {
  std::string Error;
  if (!readTuningArtifactFromFile(Path, Out, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    return false;
  }
  return true;
}

/// Renders a parameter value with integer parameters shown as integers.
std::string formatValue(const ParamInfo &Info, double Value) {
  char Buf[48];
  if (Info.Integer)
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(Value));
  else
    std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return Buf;
}

std::string tuneReportJson(const TunerResult &Result,
                           const TuningArtifact &Artifact) {
  std::ostringstream OS;
  char Buf[48];
  auto Num = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    return std::string(Buf);
  };
  OS << "{\n  \"schema\": \"cswitch-tune-v2\",\n"
     << "  \"sweeps\": " << Result.Sweeps
     << ",\n  \"evaluations\": " << Result.Evaluations
     << ",\n  \"corpus_digest\": \"" << Artifact.CorpusDigest
     << "\",\n  \"baseline_fitness\": " << Num(Result.BaselineFitness)
     << ",\n  \"best_fitness\": " << Num(Result.BestFitness)
     << ",\n  \"history\": [";
  for (size_t I = 0; I != Result.History.size(); ++I)
    OS << (I ? ", " : "") << Num(Result.History[I]);
  OS << "],\n  \"parameters\": {";
  const auto &Space = parameterSpace();
  for (size_t I = 0; I != Space.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Space[I].Name
       << "\": " << Num(Result.Best.get(Space[I].Id));
  OS << "}\n}\n";
  return OS.str();
}

int runTune(const std::vector<std::string> &Args) {
  TunerOptions Options;
  std::string ModelPath, OutPath, JsonPath;
  std::vector<std::string> TracePaths;
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto Next = [&]() -> const std::string * {
      return I + 1 != Args.size() ? &Args[++I] : nullptr;
    };
    const std::string *V = nullptr;
    if (Arg == "--out") {
      if (!(V = Next()))
        return usage();
      OutPath = *V;
    } else if (Arg == "--model") {
      if (!(V = Next()))
        return usage();
      ModelPath = *V;
    } else if (Arg == "--json") {
      if (!(V = Next()))
        return usage();
      JsonPath = *V;
    } else if (Arg == "--time-weight") {
      if (!(V = Next()))
        return usage();
      Options.TimeWeight = std::stod(*V);
    } else if (Arg == "--alloc-weight") {
      if (!(V = Next()))
        return usage();
      Options.AllocWeight = std::stod(*V);
    } else if (Arg == "--switch-penalty") {
      if (!(V = Next()))
        return usage();
      Options.SwitchPenalty = std::stod(*V);
    } else {
      TracePaths.push_back(Arg);
    }
  }
  if (OutPath.empty() || TracePaths.empty())
    return usage();

  auto Model = std::make_shared<PerformanceModel>();
  std::string ModelError;
  if (!loadModelFile(ModelPath, *Model, &ModelError)) {
    std::fprintf(stderr, "error: cannot load model %s: %s\n",
                 ModelPath.c_str(), ModelError.c_str());
    return 1;
  }

  Tuner Search(std::move(Model), Options);
  for (const std::string &Path : TracePaths) {
    OpTrace Trace;
    if (!loadTraceArg(Path, Trace))
      return 1;
    Search.addTrace(std::move(Trace));
  }

  std::printf("tuning over %zu trace(s), corpus %s\n", Search.traceCount(),
              Search.corpusDigest().c_str());
  TunerResult Result = Search.run();
  TuningArtifact Artifact = Search.makeArtifact(Result);

  std::printf("search: %u sweep(s), %llu evaluation(s)\n", Result.Sweeps,
              static_cast<unsigned long long>(Result.Evaluations));
  std::printf("fitness: baseline %.6f -> best %.6f (%.2f%% better)\n",
              Result.BaselineFitness, Result.BestFitness,
              Result.BaselineFitness > 0.0
                  ? (1.0 - Result.BestFitness / Result.BaselineFitness) *
                        100.0
                  : 0.0);
  ParameterSet Defaults;
  for (const ParamInfo &Info : parameterSpace()) {
    double Tuned = Result.Best.get(Info.Id);
    if (Tuned != Defaults.get(Info.Id))
      std::printf("  %-26s %s (default %s)\n", Info.Name,
                  formatValue(Info, Tuned).c_str(),
                  formatValue(Info, Info.Default).c_str());
  }

  std::string Error;
  if (!writeTuningArtifactToFile(OutPath, Artifact, &Error)) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", OutPath.c_str(),
                 Error.c_str());
    return 1;
  }
  std::printf("[wrote %s]\n", OutPath.c_str());

  if (!JsonPath.empty() &&
      !emitOutput(JsonPath, tuneReportJson(Result, Artifact)))
    return 1;
  return 0;
}

int runInfo(const std::vector<std::string> &Args) {
  if (Args.size() != 1)
    return usage();
  TuningArtifact Artifact;
  if (!loadArtifactArg(Args[0], Artifact))
    return 1;
  std::printf("artifact: %s (cswitch-tuning-v2)\n", Args[0].c_str());
  std::printf("  host: %s\n", Artifact.HostFingerprint.c_str());
  std::printf("  corpus: %s\n", Artifact.CorpusDigest.c_str());
  std::printf("  search: %llu sweep(s), %llu evaluation(s)\n",
              static_cast<unsigned long long>(Artifact.Sweeps),
              static_cast<unsigned long long>(Artifact.Evaluations));
  std::printf("  objective: time %.3g, alloc %.3g\n", Artifact.TimeWeight,
              Artifact.AllocWeight);
  std::printf("  fitness: baseline %.6f -> winner %.6f\n",
              Artifact.BaselineFitness, Artifact.WinnerFitness);
  for (const TuningArtifact::Row &Row : Artifact.Rows) {
    const ParamInfo *Info = findParam(Row.Name);
    std::printf("  %-26s %s\n", Row.Name.c_str(),
                Info ? formatValue(*Info, Row.Value).c_str() : "?");
  }
  return 0;
}

int runApply(const std::vector<std::string> &Args) {
  if (Args.size() != 1)
    return usage();
  std::string Error;
  if (!Switch::applyTuning(Args[0], &Error))
    return 1;
  TuningStats Stats = Switch::telemetry().Tuning;
  std::printf("applied %s: %llu parameter(s) installed\n", Args[0].c_str(),
              static_cast<unsigned long long>(Stats.Parameters));
  ContextOptions Defaults = Switch::defaultContextOptions();
  std::printf("  context defaults: window %zu, finished ratio %.3g, "
              "wide-range %.3g\n",
              Defaults.WindowSize, Defaults.FinishedRatio,
              Defaults.WideRangeFactor);
  AdaptiveThresholds T = AdaptiveConfig::global().thresholds();
  std::printf("  adaptive thresholds: list %zu, set %zu, map %zu\n", T.List,
              T.Set, T.Map);
  return 0;
}

int runDiff(const std::vector<std::string> &Args) {
  if (Args.empty() || Args.size() > 2)
    return usage();
  TuningArtifact After;
  if (!loadArtifactArg(Args.back(), After))
    return 1;
  ParameterSet BaseParams;
  std::string BaseName = "paper defaults";
  if (Args.size() == 2) {
    TuningArtifact Before;
    if (!loadArtifactArg(Args[0], Before))
      return 1;
    std::string Error;
    if (!paramsFromArtifact(Before, BaseParams, &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Args[0].c_str(),
                   Error.c_str());
      return 1;
    }
    BaseName = Args[0];
  }
  ParameterSet AfterParams;
  std::string Error;
  if (!paramsFromArtifact(After, AfterParams, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Args.back().c_str(),
                 Error.c_str());
    return 1;
  }
  std::printf("%s -> %s\n", BaseName.c_str(), Args.back().c_str());
  size_t Changed = 0;
  for (const ParamInfo &Info : parameterSpace()) {
    double From = BaseParams.get(Info.Id);
    double To = AfterParams.get(Info.Id);
    if (From == To)
      continue;
    ++Changed;
    std::printf("  %-26s %s -> %s\n", Info.Name,
                formatValue(Info, From).c_str(),
                formatValue(Info, To).c_str());
  }
  if (!Changed)
    std::printf("  (no differences)\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Subcommand = Argv[1];
  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  if (Subcommand == "tune")
    return runTune(Args);
  if (Subcommand == "info")
    return runInfo(Args);
  if (Subcommand == "apply")
    return runApply(Args);
  if (Subcommand == "diff")
    return runDiff(Args);
  return usage();
}

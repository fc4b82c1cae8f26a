//===- cswitch_replay.cpp - Trace replay & what-if CLI --------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Front-end of the src/replay/ subsystem: inspect recorded operation
// traces, re-execute them deterministically, and sweep selection
// policies over them. Traces are recorded by the app harness
// (`table5_dacapo --record out.optrace`).
//
//   cswitch_replay info trace.optrace                 # describe a trace
//   cswitch_replay replay trace.optrace               # engine-mode replay
//   cswitch_replay replay --mode fixed --list arraylist trace.optrace
//   cswitch_replay replay --decision-log log.txt --seed 7 trace.optrace
//   cswitch_replay simulate trace1.optrace trace2.optrace
//
// Every subcommand accepts `-` as a trace path to read the binary trace
// from stdin.
//
//===----------------------------------------------------------------------===//

#include "model/DefaultModel.h"
#include "replay/PolicySimulator.h"
#include "replay/Replayer.h"
#include "support/MetricsExport.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace cswitch;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: cswitch_replay <subcommand> [options] <trace ...>\n"
      "\n"
      "subcommands:\n"
      "  info      describe a trace (sites, ops, recorder loss)\n"
      "  replay    re-execute a trace deterministically\n"
      "  simulate  sweep selection policies over a trace corpus\n"
      "\n"
      "common options:\n"
      "  --model <file>        performance model (default: built-in)\n"
      "  --seed <n>            operand-synthesis seed (default 0x1905)\n"
      "  --threads <n>         replay worker threads (default 1)\n"
      "  --json <file|->       machine-readable report\n"
      "\n"
      "replay options:\n"
      "  --mode engine|fixed   full decision pipeline or pinned variants\n"
      "  --rule rtime|ralloc|renergy|impossible\n"
      "  --eval-every <n>      context evaluation cadence in ops (256)\n"
      "  --window <n>          monitoring window size (100)\n"
      "  --list/--set/--map <variant>   fixed-mode variant overrides\n"
      "  --decision-log <file|->        dump the decision log\n"
      "\n"
      "a trace path of - reads the binary trace from stdin\n");
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

int runInfo(const std::vector<std::string> &Args) {
  if (Args.empty())
    return usage();
  const std::string &TracePath = Args.back();

  OpTrace Trace;
  if (!loadTraceArg(TracePath, Trace))
    return 1;

  std::printf("trace: %s (cswitch-optrace-v1)\n", TracePath.c_str());
  std::printf("  sites: %zu  ops: %zu  duration: %.3f ms\n",
              Trace.Sites.size(), Trace.Ops.size(),
              static_cast<double>(Trace.durationNanos()) / 1e6);
  std::printf("  instances: %llu sampled, %llu skipped;  ops dropped: "
              "%llu\n",
              static_cast<unsigned long long>(Trace.InstancesSampled),
              static_cast<unsigned long long>(Trace.InstancesSkipped),
              static_cast<unsigned long long>(Trace.OpsDropped));
  std::vector<uint64_t> OpsPerSite(Trace.Sites.size(), 0);
  for (const TraceOp &Op : Trace.Ops)
    if (Op.Site < OpsPerSite.size())
      ++OpsPerSite[Op.Site];
  for (size_t I = 0; I != Trace.Sites.size(); ++I) {
    const TraceSite &Site = Trace.Sites[I];
    std::printf("  site %zu: %s (%s, declared %s): %llu ops\n", I,
                Site.Name.c_str(), abstractionKindName(Site.Kind),
                VariantId{Site.Kind, Site.DeclaredVariantIndex}.name().c_str(),
                static_cast<unsigned long long>(OpsPerSite[I]));
  }
  return 0;
}

std::string replayResultToJson(const ReplayResult &Result,
                               const ReplayOptions &Options) {
  std::ostringstream OS;
  OS << "{\n  \"schema\": \"cswitch-replay-v1\",\n"
     << "  \"mode\": \""
     << (Options.Mode == ReplayMode::Engine ? "engine" : "fixed")
     << "\",\n  \"seed\": " << Options.Seed
     << ",\n  \"threads\": " << Options.Threads
     << ",\n  \"ops_executed\": " << Result.OpsExecuted
     << ",\n  \"instances_replayed\": " << Result.InstancesReplayed
     << ",\n  \"size_mismatches\": " << Result.SizeMismatches
     << ",\n  \"evaluations\": " << Result.Evaluations
     << ",\n  \"switches\": " << Result.Switches
     << ",\n  \"elapsed_nanos\": " << Result.ElapsedNanos
     << ",\n  \"allocated_bytes\": " << Result.AllocatedBytes
     << ",\n  \"sites\": [\n";
  for (size_t I = 0; I != Result.Sites.size(); ++I) {
    const SiteReplayResult &Site = Result.Sites[I];
    OS << "    {\"name\": \"" << jsonEscape(Site.Name)
       << "\", \"initial\": \""
       << jsonEscape(VariantId{Site.Kind, Site.InitialVariantIndex}.name())
       << "\", \"final\": \""
       << jsonEscape(VariantId{Site.Kind, Site.FinalVariantIndex}.name())
       << "\", \"ops\": " << Site.OpsExecuted
       << ", \"switches\": " << Site.Switches << "}"
       << (I + 1 == Result.Sites.size() ? "\n" : ",\n");
  }
  OS << "  ]\n}\n";
  return OS.str();
}

int runReplay(const std::vector<std::string> &Args) {
  ReplayOptions Options;
  std::string ModelPath, JsonPath, DecisionLogPath, TracePath;
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto Next = [&]() -> const std::string * {
      return I + 1 != Args.size() ? &Args[++I] : nullptr;
    };
    if (Arg == "--mode") {
      const std::string *V = Next();
      if (!V || (*V != "engine" && *V != "fixed"))
        return usage();
      Options.Mode =
          *V == "engine" ? ReplayMode::Engine : ReplayMode::Fixed;
    } else if (Arg == "--rule") {
      const std::string *V = Next();
      if (!V || !SelectionRule::fromName(*V, Options.Rule))
        return usage();
    } else if (Arg == "--model") {
      const std::string *V = Next();
      if (!V)
        return usage();
      ModelPath = *V;
    } else if (Arg == "--seed") {
      const std::string *V = Next();
      if (!V)
        return usage();
      Options.Seed = std::stoull(*V, nullptr, 0);
    } else if (Arg == "--threads") {
      const std::string *V = Next();
      if (!V)
        return usage();
      Options.Threads = static_cast<unsigned>(std::stoul(*V));
    } else if (Arg == "--eval-every") {
      const std::string *V = Next();
      if (!V)
        return usage();
      Options.EvalEveryOps = std::stoull(*V);
    } else if (Arg == "--window") {
      const std::string *V = Next();
      if (!V)
        return usage();
      Options.Context.WindowSize = std::stoul(*V);
    } else if (Arg == "--list") {
      const std::string *V = Next();
      ListVariant Variant;
      if (!V || !parseListVariant(*V, Variant))
        return usage();
      Options.FixedList = static_cast<unsigned>(Variant);
    } else if (Arg == "--set") {
      const std::string *V = Next();
      SetVariant Variant;
      if (!V || !parseSetVariant(*V, Variant))
        return usage();
      Options.FixedSet = static_cast<unsigned>(Variant);
    } else if (Arg == "--map") {
      const std::string *V = Next();
      MapVariant Variant;
      if (!V || !parseMapVariant(*V, Variant))
        return usage();
      Options.FixedMap = static_cast<unsigned>(Variant);
    } else if (Arg == "--decision-log") {
      const std::string *V = Next();
      if (!V)
        return usage();
      DecisionLogPath = *V;
    } else if (Arg == "--json") {
      const std::string *V = Next();
      if (!V)
        return usage();
      JsonPath = *V;
    } else {
      TracePath = Arg;
    }
  }
  if (TracePath.empty())
    return usage();

  OpTrace Trace;
  if (!loadTraceArg(TracePath, Trace))
    return 1;

  if (Options.Mode == ReplayMode::Engine) {
    auto Model = std::make_shared<PerformanceModel>();
    std::string ModelError;
    if (!loadModelFile(ModelPath, *Model, &ModelError)) {
      std::fprintf(stderr, "error: cannot load model %s: %s\n",
                   ModelPath.c_str(), ModelError.c_str());
      return 1;
    }
    Options.Model = std::move(Model);
  }

  Replayer Replay(std::move(Trace), Options);
  ReplayResult Result = Replay.run();

  std::printf("replayed %llu ops, %llu instances in %.3f ms "
              "(%.1f Mops/s), %.2f MB allocated\n",
              static_cast<unsigned long long>(Result.OpsExecuted),
              static_cast<unsigned long long>(Result.InstancesReplayed),
              static_cast<double>(Result.ElapsedNanos) / 1e6,
              Result.ElapsedNanos
                  ? static_cast<double>(Result.OpsExecuted) * 1e3 /
                        static_cast<double>(Result.ElapsedNanos)
                  : 0.0,
              static_cast<double>(Result.AllocatedBytes) /
                  (1024.0 * 1024.0));
  std::printf("  evaluations: %llu  switches: %llu  size mismatches: "
              "%llu\n",
              static_cast<unsigned long long>(Result.Evaluations),
              static_cast<unsigned long long>(Result.Switches),
              static_cast<unsigned long long>(Result.SizeMismatches));
  for (const SiteReplayResult &Site : Result.Sites)
    std::printf("  %s: %s -> %s (%llu ops, %llu switches)\n",
                Site.Name.c_str(),
                VariantId{Site.Kind, Site.InitialVariantIndex}
                    .name()
                    .c_str(),
                VariantId{Site.Kind, Site.FinalVariantIndex}
                    .name()
                    .c_str(),
                static_cast<unsigned long long>(Site.OpsExecuted),
                static_cast<unsigned long long>(Site.Switches));

  if (!DecisionLogPath.empty() &&
      !emitOutput(DecisionLogPath, Result.DecisionLog))
    return 1;
  if (!JsonPath.empty() &&
      !emitOutput(JsonPath, replayResultToJson(Result, Replay.options())))
    return 1;
  return 0;
}

int runSimulate(const std::vector<std::string> &Args) {
  std::string ModelPath, JsonPath;
  uint64_t Seed = 0x1905;
  unsigned Threads = 1;
  std::vector<std::string> TracePaths;
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--model" && I + 1 != Args.size())
      ModelPath = Args[++I];
    else if (Arg == "--json" && I + 1 != Args.size())
      JsonPath = Args[++I];
    else if (Arg == "--seed" && I + 1 != Args.size())
      Seed = std::stoull(Args[++I], nullptr, 0);
    else if (Arg == "--threads" && I + 1 != Args.size())
      Threads = static_cast<unsigned>(std::stoul(Args[++I]));
    else
      TracePaths.push_back(Arg);
  }
  if (TracePaths.empty())
    return usage();

  auto Model = std::make_shared<PerformanceModel>();
  std::string ModelError;
  if (!loadModelFile(ModelPath, *Model, &ModelError)) {
    std::fprintf(stderr, "error: cannot load model %s: %s\n",
                 ModelPath.c_str(), ModelError.c_str());
    return 1;
  }

  PolicySimulator Simulator(std::move(Model));
  for (const std::string &Path : TracePaths) {
    OpTrace Trace;
    if (!loadTraceArg(Path, Trace))
      return 1;
    Simulator.addTrace(std::move(Trace));
  }
  Simulator.addDefaultPolicies();

  SimulationReport Report = Simulator.run(Seed, Threads);
  std::fputs(Report.render().c_str(), stdout);
  if (!JsonPath.empty() && !emitOutput(JsonPath, Report.toJson()))
    return 1;
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Subcommand = Argv[1];
  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  if (Subcommand == "info")
    return runInfo(Args);
  if (Subcommand == "replay")
    return runReplay(Args);
  if (Subcommand == "simulate")
    return runSimulate(Args);
  return usage();
}

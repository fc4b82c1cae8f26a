//===- ablation_parameters.cpp - Framework parameter ablations ------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Ablation studies of the design choices DESIGN.md calls out (the paper
// fixes window size = 100, finished ratio = 0.6 and gates adaptive
// variants behind a wide-size-range test; here each knob is swept):
//
//  (a) window size — adaptation latency (instances until the first
//      correct switch) versus per-round analysis cost;
//  (b) finished ratio — decision latency versus decision stability
//      (switch-back count on a noisy workload);
//  (c) the adaptive-variant eligibility gate — decisions with the gate
//      on versus off on a narrow-size workload.
//
// Tuning regression mode (DESIGN.md §13): the same binary doubles as
// the acceptance harness of the offline autotuner —
//
//   ablation_parameters --emit-traces <dir>   record the six scenario
//                                             traces (five DaCapo
//                                             simulants + the
//                                             sequential server shadow)
//   ablation_parameters --check               tune in-process and
//                                             gate: tuned
//                                             beats paper defaults on
//                                             >= 3 of 6 scenarios, no
//                                             scenario's time cost
//                                             regresses > 5%, and the
//                                             search is bit-
//                                             deterministic
//   ablation_parameters --check --tuning <artifact>   gate a
//                                             pre-built artifact
//   --traces <dir>     reuse traces emitted earlier (default: record
//                      in-process)
//   --json <file>      machine-readable report (BENCH_tuning.json)
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "apps/Apps.h"
#include "core/Switch.h"
#include "replay/TraceRecorder.h"
#include "support/MetricsExport.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "tuner/Tuner.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

/// Runs lookup-heavy instances through the context until it switches or
/// \p MaxInstances were created; returns instances consumed (or
/// MaxInstances if it never switched).
size_t instancesUntilSwitch(ListContext<int64_t> &Ctx,
                            size_t MaxInstances) {
  for (size_t I = 0; I != MaxInstances; ++I) {
    {
      List<int64_t> L = Ctx.createList();
      for (int64_t V = 0; V != 300; ++V)
        L.add(V);
      for (int64_t V = 0; V != 3000; ++V)
        (void)L.contains(V);
    }
    if (I % 10 == 9) {
      Ctx.evaluate();
      if (Ctx.switchCount() > 0)
        return I + 1;
    }
  }
  return MaxInstances;
}

void windowSizeAblation(
    const std::shared_ptr<const PerformanceModel> &Model) {
  std::printf("\n(a) window size: adaptation latency vs analysis cost\n");
  std::printf("%8s %22s %20s\n", "window", "instances to switch",
              "eval cost (us)");
  for (size_t Window : {10u, 25u, 50u, 100u, 250u, 500u}) {
    ContextOptions Options;
    Options.WindowSize = Window;
    Options.FinishedRatio = 0.6;
    Options.LogEvents = false;
    ListContext<int64_t> Ctx("ablation:w", ListVariant::ArrayList, Model,
                             SelectionRule::timeRule(), Options);
    size_t Latency = instancesUntilSwitch(Ctx, 2000);

    // Analysis cost of one full window.
    ListContext<int64_t> CostCtx("ablation:wc", ListVariant::ArrayList,
                                 Model, SelectionRule::impossibleRule(),
                                 Options);
    for (size_t I = 0; I != Window; ++I) {
      List<int64_t> L = CostCtx.createList();
      L.add(1);
    }
    Timer Clock;
    CostCtx.evaluate();
    std::printf("%8zu %22zu %20.1f\n", Window, Latency,
                static_cast<double>(Clock.elapsedNanos()) / 1e3);
  }
}

void finishedRatioAblation(
    const std::shared_ptr<const PerformanceModel> &Model) {
  std::printf("\n(b) finished ratio: decision latency vs stability\n");
  std::printf("%8s %22s %14s\n", "ratio", "instances to switch",
              "switches");
  for (double Ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    ContextOptions Options;
    Options.WindowSize = 100;
    Options.FinishedRatio = Ratio;
    Options.LogEvents = false;
    ListContext<int64_t> Ctx("ablation:r", ListVariant::ArrayList, Model,
                             SelectionRule::timeRule(), Options);
    size_t Latency = instancesUntilSwitch(Ctx, 2000);

    // Noisy alternating workload: low ratios decide on partial windows
    // and thrash more.
    ContextOptions Noisy = Options;
    ListContext<int64_t> NoisyCtx("ablation:rn", ListVariant::ArrayList,
                                  Model, SelectionRule::timeRule(), Noisy);
    SplitMix64 Rng(3);
    for (int Round = 0; Round != 40; ++Round) {
      // Phases alternate between a lookup-heavy mix (favors
      // HashArrayList) and a positional mix (favors ArrayList).
      bool LookupHeavy = Round % 2 == 0;
      for (int I = 0; I != 60; ++I) {
        List<int64_t> L = NoisyCtx.createList();
        for (int64_t V = 0; V != 300; ++V)
          L.add(V);
        if (LookupHeavy) {
          for (size_t V = 0; V != 3000; ++V)
            (void)L.contains(static_cast<int64_t>(Rng.nextBelow(600)));
        } else {
          for (size_t V = 0; V != 3000; ++V)
            (void)L.get(Rng.nextBelow(300));
        }
      }
      NoisyCtx.evaluate();
    }
    std::printf("%8.1f %22zu %14llu\n", Ratio, Latency,
                static_cast<unsigned long long>(NoisyCtx.switchCount()));
  }
}

void adaptiveGateAblation(
    const std::shared_ptr<const PerformanceModel> &Model) {
  std::printf("\n(c) adaptive-variant gate on a narrow-size set "
              "workload (all instances ~20 elements)\n");
  for (double Factor : {4.0, 1.0}) { // 1.0 effectively disables the gate
    ContextOptions Options;
    Options.WindowSize = 50;
    Options.FinishedRatio = 0.6;
    Options.LogEvents = false;
    Options.WideRangeFactor = Factor;
    SetContext<int64_t> Ctx("ablation:g", SetVariant::ChainedHashSet,
                            Model, SelectionRule::allocRule(), Options);
    for (int I = 0; I != 50; ++I) {
      Set<int64_t> S = Ctx.createSet();
      for (int64_t V = 0; V != 20; ++V)
        S.add(V);
      for (int64_t V = 0; V != 40; ++V)
        (void)S.contains(V);
    }
    Ctx.evaluate();
    std::printf("  gate %s -> selected %s\n",
                Factor > 1.0 ? "ON (factor 4)" : "OFF(factor 1)",
                Ctx.currentVariant().name().c_str());
  }
  std::printf("  (with the gate off, AdaptiveSet may be selected even "
              "though every instance\n   stays below its threshold — "
              "the paper's §3.2 rationale for the gate)\n");
}

//===--------------------------------------------------------------------===//
// Tuning regression harness
//===--------------------------------------------------------------------===//

/// One replayable scenario of the acceptance gate.
struct Scenario {
  std::string Name;
  OpTrace Trace;
};

/// The sequential "server shadow": the session-server access pattern
/// (Zipf-skewed cache map, churning registry set, append-mostly feed
/// list) replayed single-threaded, so the tuner's corpus also exerts
/// pressure on map/set sites the DaCapo simulants under-use.
void runServerShadow(const std::shared_ptr<const PerformanceModel> &Model,
                     TraceRecorder *Recorder) {
  ContextOptions Options;
  Options.WindowSize = 32;
  Options.FinishedRatio = 0.6;
  Options.LogEvents = false;
  Options.Recorder = Recorder;
  MapContext<int64_t, int64_t> Cache("shadow:cache",
                                     MapVariant::ChainedHashMap, Model,
                                     SelectionRule::timeRule(), Options);
  SetContext<int64_t> Registry("shadow:registry",
                               SetVariant::ChainedHashSet, Model,
                               SelectionRule::timeRule(), Options);
  ListContext<int64_t> Feed("shadow:feed", ListVariant::LinkedList, Model,
                            SelectionRule::timeRule(), Options);
  SplitMix64 Rng(29);
  for (int Epoch = 0; Epoch != 24; ++Epoch) {
    Map<int64_t, int64_t> M = Cache.createMap();
    Set<int64_t> S = Registry.createSet();
    List<int64_t> L = Feed.createList();
    for (int I = 0; I != 600; ++I) {
      // ~90% lookups against a skewed hot set, 10% updates — the
      // session-cache mix.
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(64)) *
                    static_cast<int64_t>(Rng.nextBelow(8) + 1);
      if (Rng.nextBelow(10) == 0)
        M.put(Key, I);
      else
        (void)M.get(Key);
      // Session churn: short-lived registrations.
      int64_t Session = static_cast<int64_t>(Rng.nextBelow(256));
      if (Rng.nextBelow(3) == 0)
        S.remove(Session);
      else
        S.add(Session);
      // Append-mostly event feed with rare scans.
      L.add(I);
      if (Rng.nextBelow(50) == 0)
        (void)L.contains(static_cast<int64_t>(Rng.nextBelow(600)));
    }
    if (Epoch % 4 == 3) {
      Cache.evaluate();
      Registry.evaluate();
      Feed.evaluate();
    }
  }
}

/// Records all six scenarios in-process: the five DaCapo simulants in
/// FullAdap Rtime mode (the table5_dacapo recording setup, scaled
/// down) plus the server shadow.
std::vector<Scenario>
recordScenarios(const std::shared_ptr<const PerformanceModel> &Model,
                double Scale) {
  std::vector<Scenario> Scenarios;
  for (AppKind App : AllAppKinds) {
    TraceRecorder Recorder(TraceRecorderOptions{}.capacity(1 << 22));
    AppRunConfig RC;
    RC.Config = AppConfig::FullAdap;
    RC.Rule = SelectionRule::timeRule();
    RC.Model = Model;
    RC.Seed = 17;
    RC.Scale = Scale;
    RC.CtxOptions.LogEvents = false;
    RC.CtxOptions.Recorder = &Recorder;
    runApp(App, RC);
    Scenarios.push_back({appKindName(App), Recorder.trace()});
  }
  {
    TraceRecorder Recorder(TraceRecorderOptions{}.capacity(1 << 22));
    runServerShadow(Model, &Recorder);
    Scenarios.push_back({"server_shadow", Recorder.trace()});
  }
  return Scenarios;
}

const char *const ScenarioNames[] = {"avrora", "bloat",    "fop",
                                     "h2",     "lusearch", "server_shadow"};

int emitTraces(const std::shared_ptr<const PerformanceModel> &Model,
               double Scale, const std::string &Dir) {
  ::mkdir(Dir.c_str(), 0755); // best-effort; the write below reports errors
  for (Scenario &S : recordScenarios(Model, Scale)) {
    std::string Path = Dir + "/" + S.Name + ".optrace";
    std::string Error;
    if (!writeTraceToFile(Path, S.Trace, &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
      return 1;
    }
    std::printf("[wrote %s: %zu sites, %zu ops]\n", Path.c_str(),
                S.Trace.Sites.size(), S.Trace.Ops.size());
  }
  return 0;
}

bool loadScenarios(const std::string &Dir, std::vector<Scenario> &Out) {
  for (const char *Name : ScenarioNames) {
    std::string Path = Dir + "/" + Name + std::string(".optrace");
    OpTrace Trace;
    std::string Error;
    if (!readTraceFromFile(Path, Trace, &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
      return false;
    }
    Out.push_back({Name, std::move(Trace)});
  }
  return true;
}

int runCheck(const std::shared_ptr<const PerformanceModel> &Model,
             double Scale, const std::string &TracesDir,
             const std::string &ArtifactPath, const std::string &JsonPath) {
  std::vector<Scenario> Scenarios;
  if (!TracesDir.empty()) {
    if (!loadScenarios(TracesDir, Scenarios))
      return 1;
  } else {
    std::printf("[recording %zu scenarios in-process, scale %.2f]\n",
                sizeof(ScenarioNames) / sizeof(ScenarioNames[0]), Scale);
    Scenarios = recordScenarios(Model, Scale);
  }

  tuner::TunerOptions Options;
  tuner::Tuner Search(Model, Options);
  for (Scenario &S : Scenarios)
    Search.addTrace(std::move(S.Trace));

  tuner::ParameterSet Tuned;
  bool Deterministic = true;
  if (!ArtifactPath.empty()) {
    tuner::TuningArtifact Artifact;
    std::string Error;
    if (!tuner::readTuningArtifactFromFile(ArtifactPath, Artifact,
                                           &Error) ||
        !tuner::paramsFromArtifact(Artifact, Tuned, &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", ArtifactPath.c_str(),
                   Error.c_str());
      return 1;
    }
    std::printf("[gating artifact %s (corpus %s)]\n", ArtifactPath.c_str(),
                Artifact.CorpusDigest.c_str());
  } else {
    // Bit-determinism is part of the acceptance gate: two independent
    // searches over the same corpus must produce byte-identical
    // artifacts.
    tuner::TunerResult Result = Search.run();
    tuner::Tuner Rerun(Model, Options);
    for (const OpTrace &Trace : Search.corpus())
      Rerun.addTrace(Trace);
    tuner::TunerResult Result2 = Rerun.run();
    std::string Bytes = encodeTuningArtifact(Search.makeArtifact(Result));
    std::string Bytes2 = encodeTuningArtifact(Rerun.makeArtifact(Result2));
    Deterministic = Bytes == Bytes2;
    // The artifact must survive its own codec.
    tuner::TuningArtifact Decoded;
    std::string Error;
    if (!tuner::decodeTuningArtifact(Bytes, Decoded, &Error) ||
        !tuner::paramsFromArtifact(Decoded, Tuned, &Error)) {
      std::fprintf(stderr, "error: artifact round-trip failed: %s\n",
                   Error.c_str());
      return 1;
    }
    std::printf("[search: %u sweep(s), %llu evaluation(s), fitness "
                "%.4f -> %.4f, %s]\n",
                Result.Sweeps,
                static_cast<unsigned long long>(Result.Evaluations),
                Result.BaselineFitness, Result.BestFitness,
                Deterministic ? "bit-deterministic" : "NON-DETERMINISTIC");
  }

  // Per-scenario gate: scalarized tuned-vs-default trajectory-cost
  // ratio (the tuner's own objective, resolved per scenario).
  const double Wt = Options.TimeWeight, Wa = Options.AllocWeight;
  std::vector<ReplayResult> Default = replayCorpus(
      Search.corpus(), Search.replayOptionsFor(tuner::ParameterSet()));
  std::vector<ReplayResult> Tuning =
      replayCorpus(Search.corpus(), Search.replayOptionsFor(Tuned));
  size_t Wins = 0;
  double WorstTimeRatio = 0.0;
  std::ostringstream Rows;
  std::printf("\n%-14s %12s %12s %10s %10s\n", "scenario", "default",
              "tuned", "ratio", "time-ratio");
  for (size_t I = 0; I != Scenarios.size(); ++I) {
    const Scenario &S = Scenarios[I];
    const ReplayResult &Before = Default[I], &After = Tuning[I];
    double TimeRatio = Before.TrajectoryTime > 0.0
                           ? After.TrajectoryTime / Before.TrajectoryTime
                           : 1.0;
    double AllocRatio = Before.TrajectoryAlloc > 0.0
                            ? After.TrajectoryAlloc / Before.TrajectoryAlloc
                            : 1.0;
    double Ratio = (Wt * TimeRatio + Wa * AllocRatio) / (Wt + Wa);
    if (Ratio < 0.999)
      ++Wins;
    if (TimeRatio > WorstTimeRatio)
      WorstTimeRatio = TimeRatio;
    std::printf("%-14s %12.4g %12.4g %10.4f %10.4f\n", S.Name.c_str(),
                Before.TrajectoryTime, After.TrajectoryTime, Ratio,
                TimeRatio);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"scenario\": \"%s\", \"default_time\": %.6g, "
                  "\"tuned_time\": %.6g, \"default_alloc\": %.6g, "
                  "\"tuned_alloc\": %.6g, \"ratio\": %.6f, "
                  "\"time_ratio\": %.6f}%s\n",
                  S.Name.c_str(), Before.TrajectoryTime,
                  After.TrajectoryTime, Before.TrajectoryAlloc,
                  After.TrajectoryAlloc, Ratio, TimeRatio,
                  I + 1 == Scenarios.size() ? "" : ",");
    Rows << Buf;
  }

  bool WinsOk = Wins >= 3;
  bool RegressionOk = WorstTimeRatio <= 1.05;
  bool Pass = WinsOk && RegressionOk && Deterministic;
  std::printf("\ngate: wins %zu/%zu (need >= 3) %s, worst time ratio "
              "%.4f (limit 1.05) %s, determinism %s -> %s\n",
              Wins, Scenarios.size(), WinsOk ? "ok" : "FAIL",
              WorstTimeRatio, RegressionOk ? "ok" : "FAIL",
              Deterministic ? "ok" : "FAIL", Pass ? "PASS" : "FAIL");

  if (!JsonPath.empty()) {
    std::ostringstream OS;
    OS << "{\n  \"schema\": \"cswitch-bench-tuning-v1\",\n"
       << "  \"wins\": " << Wins
       << ",\n  \"scenarios\": " << Scenarios.size()
       << ",\n  \"worst_time_ratio\": " << WorstTimeRatio
       << ",\n  \"deterministic\": " << (Deterministic ? "true" : "false")
       << ",\n  \"pass\": " << (Pass ? "true" : "false")
       << ",\n  \"rows\": [\n"
       << Rows.str() << "  ]\n}\n";
    if (!writeTextFile(JsonPath, OS.str())) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("[wrote %s]\n", JsonPath.c_str());
  }
  return Pass ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::shared_ptr<const PerformanceModel> Model = loadModel();
  double Scale =
      static_cast<double>(intOption(Argc, Argv, "--scale-pct", 30)) / 100.0;
  const char *EmitDir = stringOption(Argc, Argv, "--emit-traces", "");
  if (EmitDir[0])
    return emitTraces(Model, Scale, EmitDir);
  if (hasFlag(Argc, Argv, "--check"))
    return runCheck(Model, Scale, stringOption(Argc, Argv, "--traces", ""),
                    stringOption(Argc, Argv, "--tuning", ""),
                    stringOption(Argc, Argv, "--json", ""));

  std::printf("Ablation of framework parameters (paper defaults: window "
              "100, ratio 0.6, gate on)\n");
  windowSizeAblation(Model);
  finishedRatioAblation(Model);
  adaptiveGateAblation(Model);
  return 0;
}

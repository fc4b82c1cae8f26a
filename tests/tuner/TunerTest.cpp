//===- TunerTest.cpp - Offline autotuner tests ----------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Tests of the coordinate-search tuner (DESIGN.md §13): determinism
// (the same corpus gives a byte-identical artifact), search sanity (the
// winner never loses to the paper defaults it starts from, the final
// sweep is a fixed point, unpressured parameters stay put), the
// parameter space's clamping and closed loop (every row is replayed and
// applied), the validated AdaptiveConfig setter, the per-context
// threshold override, and the runtime artifact-application path
// (Switch::applyTuning + telemetry provenance).
//
//===----------------------------------------------------------------------===//

#include "core/Switch.h"
#include "model/DefaultModel.h"
#include "replay/TraceRecorder.h"
#include "support/Random.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>

using namespace cswitch;
using namespace cswitch::tuner;

namespace {

std::shared_ptr<const PerformanceModel> testModel() {
  static std::shared_ptr<const PerformanceModel> Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

/// Records a lookup-heavy list + churny set workload: enough signal for
/// the search to beat the defaults, small enough to keep tests fast.
OpTrace recordedTrace(size_t Instances, uint64_t Seed) {
  TraceRecorder Rec;
  ContextOptions Options;
  Options.LogEvents = false;
  Options.Recorder = &Rec;
  ListContext<int64_t> Lists("tuner-test:list", ListVariant::ArrayList,
                             testModel(), SelectionRule::timeRule(),
                             Options);
  SetContext<int64_t> Sets("tuner-test:set", SetVariant::SortedArraySet,
                           testModel(), SelectionRule::timeRule(), Options);
  SplitMix64 Rng(Seed);
  for (size_t I = 0; I != Instances; ++I) {
    List<int64_t> L = Lists.createList();
    Set<int64_t> S = Sets.createSet();
    size_t N = 40 + Rng.nextBelow(40);
    for (size_t Op = 0; Op != N; ++Op) {
      L.add(static_cast<int64_t>(Op));
      S.add(static_cast<int64_t>(Rng.nextBelow(32)));
    }
    for (size_t Op = 0; Op != 4 * N; ++Op)
      (void)L.contains(static_cast<int64_t>(Rng.nextBelow(2 * N)));
    (void)S.remove(static_cast<int64_t>(Rng.nextBelow(32)));
    if (I % 8 == 7) {
      Lists.evaluate();
      Sets.evaluate();
    }
  }
  return Rec.trace();
}

TEST(ParameterSpace, ClampsOnEveryWritePath) {
  ParameterSet Params;
  // Defaults are the paper values.
  EXPECT_EQ(Params.get(ParamId::AdaptiveListThreshold), 80.0);
  EXPECT_EQ(Params.get(ParamId::ContextWindow), 100.0);

  Params.set(ParamId::AdaptiveListThreshold, 1e18);
  EXPECT_EQ(Params.get(ParamId::AdaptiveListThreshold), 4096.0);
  Params.set(ParamId::AdaptiveListThreshold, -5.0);
  EXPECT_EQ(Params.get(ParamId::AdaptiveListThreshold), 8.0);
  // Integer parameters round to integral values.
  Params.set(ParamId::ContextWindow, 99.7);
  EXPECT_EQ(Params.get(ParamId::ContextWindow), 100.0);
  // Non-finite input falls back to the default, not garbage.
  Params.set(ParamId::ContextFinishedRatio,
             std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(Params.get(ParamId::ContextFinishedRatio), 0.6);

  // The typed slices reflect the parameter set.
  Params.set(ParamId::AdaptiveMapThreshold, 200);
  EXPECT_EQ(Params.thresholds().Map, 200u);
  Params.set(ParamId::ContextWideRangeFactor, 8.5);
  EXPECT_EQ(Params.wideRangeFactor(), 8.5);
}

/// What a tuned parameter can reach: the fitness replay's options and
/// the configuration a process runs with after Switch::applyTuning.
struct Reach {
  size_t Window;
  double FinishedRatio;
  double WideRangeFactor;
  size_t List, Set, Map;
  uint64_t EvalEveryOps;
  std::vector<double> RuleThresholds;
  bool operator==(const Reach &) const = default;
};

Reach replayed(const ParameterSet &Params) {
  Tuner Search(testModel(), TunerOptions{});
  ReplayOptions O = Search.replayOptionsFor(Params);
  AdaptiveThresholds T = O.Context.AdaptiveOverride.value_or(
      AdaptiveThresholds{});
  Reach R{O.Context.WindowSize, O.Context.FinishedRatio,
          O.Context.WideRangeFactor, T.List, T.Set, T.Map,
          O.EvalEveryOps, {}};
  for (const Criterion &C : O.Rule.Criteria)
    R.RuleThresholds.push_back(C.Threshold);
  return R;
}

Reach applied(const ParameterSet &Params) {
  const char *Path = "tuner_reach_test.cstune";
  std::string Error;
  EXPECT_TRUE(
      writeTuningArtifactToFile(Path, artifactFromParams(Params), &Error))
      << Error;
  EXPECT_TRUE(Switch::applyTuning(Path, &Error)) << Error;
  std::remove(Path);
  ContextOptions O = Switch::defaultContextOptions();
  AdaptiveThresholds T = AdaptiveConfig::global().thresholds();
  // The rule and the evaluation cadence are never installed.
  Reach R{O.WindowSize, O.FinishedRatio, O.WideRangeFactor, T.List, T.Set,
          T.Map, /*EvalEveryOps=*/0, /*RuleThresholds=*/{}};
  // Restore the process defaults for other tests.
  Switch::configure(SwitchConfig{});
  AdaptiveConfig::global().setThresholds(AdaptiveThresholds{});
  return R;
}

TEST(ParameterSpace, EveryParameterIsReplayedAndApplied) {
  // A row that the fitness replay ignores is tuned blind; a row that
  // applyTuning ignores is measured but never used. Every row must move
  // both.
  ParameterSet Defaults;
  Reach ReplayedDefaults = replayed(Defaults);
  Reach AppliedDefaults = applied(Defaults);
  for (const ParamInfo &Info : parameterSpace()) {
    ParameterSet Moved;
    Moved.set(Info.Id, Info.Default == Info.Max ? Info.Min : Info.Max);
    EXPECT_FALSE(replayed(Moved) == ReplayedDefaults)
        << Info.Name << " is not replayed";
    EXPECT_FALSE(applied(Moved) == AppliedDefaults)
        << Info.Name << " is not applied";
  }
}

TEST(AdaptiveConfigValidation, RejectsOutOfRangeThresholds) {
  AdaptiveThresholds T;
  std::string Error;
  EXPECT_TRUE(validateThresholds(T, &Error)) << Error;

  T.List = 0;
  EXPECT_FALSE(validateThresholds(T, &Error));
  EXPECT_NE(Error.find("List"), std::string::npos);

  T.List = MaxAdaptiveThreshold + 1;
  EXPECT_FALSE(validateThresholds(T));

  // The checked setter refuses without touching the live config.
  AdaptiveThresholds Before = AdaptiveConfig::global().thresholds();
  EXPECT_FALSE(AdaptiveConfig::global().setThresholdsChecked(T));
  EXPECT_EQ(AdaptiveConfig::global().thresholds().List, Before.List);
}

TEST(Tuner, SameCorpusGivesByteIdenticalArtifacts) {
  OpTrace Trace = recordedTrace(48, 7);
  auto RunOnce = [&] {
    Tuner Search(testModel(), TunerOptions{});
    Search.addTrace(Trace);
    TunerResult Result = Search.run();
    return encodeTuningArtifact(Search.makeArtifact(Result));
  };
  std::string First = RunOnce();
  std::string Second = RunOnce();
  EXPECT_EQ(First, Second);
  EXPECT_FALSE(First.empty());
}

TEST(Tuner, WinnerNeverLosesToTheDefaults) {
  OpTrace Trace = recordedTrace(64, 11);
  Tuner Search(testModel(), TunerOptions{});
  Search.addTrace(Trace);
  TunerResult Result = Search.run();
  // The search starts at the defaults and moves only on a strict
  // improvement, so Best <= Baseline always holds.
  EXPECT_LE(Result.BestFitness, Result.BaselineFitness);
  EXPECT_GT(Result.Sweeps, 0u);
  EXPECT_EQ(Result.History.size(), Result.Sweeps);
  EXPECT_GT(Result.Evaluations, 0u);
}

TEST(Tuner, FinalSweepMovesNothing) {
  OpTrace Trace = recordedTrace(64, 11);
  Tuner Search(testModel(), TunerOptions{});
  Search.addTrace(Trace);
  TunerResult Result = Search.run();
  // The search stopped because a whole sweep moved nothing (a move is
  // a strict improvement), not at the sweep cap ...
  ASSERT_FALSE(Result.History.empty());
  double BeforeLast = Result.Sweeps > 1 ? Result.History[Result.Sweeps - 2]
                                        : Result.BaselineFitness;
  EXPECT_EQ(Result.History.back(), BeforeLast);
  // ... so the winner is a fixed point: no single grid move beats it.
  EXPECT_EQ(Search.evaluate(Result.Best), Result.BestFitness);
  for (const ParamInfo &Info : parameterSpace()) {
    for (double Value : searchGrid(Info)) {
      ParameterSet Neighbour = Result.Best;
      Neighbour.set(Info.Id, Value);
      EXPECT_GE(Search.evaluate(Neighbour), Result.BestFitness)
          << Info.Name << " = " << Value;
    }
  }
}

TEST(Tuner, UnpressuredParameterStaysAtItsDefault) {
  // The corpus has list and set sites only: every map threshold scores
  // the same, and ties keep the incumbent default.
  OpTrace Trace = recordedTrace(64, 11);
  for (const TraceSite &Site : Trace.Sites)
    ASSERT_NE(Site.Kind, AbstractionKind::Map);
  Tuner Search(testModel(), TunerOptions{});
  Search.addTrace(Trace);
  TunerResult Result = Search.run();
  EXPECT_EQ(Result.Best.get(ParamId::AdaptiveMapThreshold), 50.0);
}

TEST(Tuner, SearchGridSpansTheBoundsAndHoldsTheDefault) {
  const auto &Space = parameterSpace();
  for (const ParamInfo &Info : Space) {
    std::vector<double> Grid = searchGrid(Info);
    EXPECT_EQ(Grid.front(), Info.Min) << Info.Name;
    EXPECT_EQ(Grid.back(), Info.Max) << Info.Name;
    EXPECT_TRUE(std::is_sorted(Grid.begin(), Grid.end())) << Info.Name;
    EXPECT_NE(std::find(Grid.begin(), Grid.end(), Info.Default), Grid.end())
        << Info.Name;
    EXPECT_LE(Grid.size(), 10u) << Info.Name;
  }
  // Wide integer ranges are log-spaced: window 8..2048 doubles.
  EXPECT_EQ(searchGrid(Space[static_cast<size_t>(ParamId::ContextWindow)]),
            (std::vector<double>{8, 16, 32, 64, 100, 128, 256, 512, 1024,
                                 2048}));
}

TEST(Tuner, ArtifactCarriesProvenance) {
  OpTrace Trace = recordedTrace(32, 3);
  Tuner Search(testModel(), TunerOptions{});
  Search.addTrace(Trace);
  TunerResult Result = Search.run();
  TuningArtifact Artifact = Search.makeArtifact(Result);
  EXPECT_EQ(Artifact.Sweeps, Result.Sweeps);
  EXPECT_EQ(Artifact.Evaluations, Result.Evaluations);
  EXPECT_EQ(Artifact.CorpusDigest, Search.corpusDigest());
  EXPECT_FALSE(Artifact.HostFingerprint.empty());
  EXPECT_EQ(Artifact.Rows.size(), NumTunableParams);
  EXPECT_DOUBLE_EQ(Artifact.WinnerFitness, Result.BestFitness);
  // The encoded artifact decodes back to the winning genome.
  ParameterSet Params;
  std::string Error;
  TuningArtifact Decoded;
  ASSERT_TRUE(decodeTuningArtifact(encodeTuningArtifact(Artifact), Decoded,
                                   &Error))
      << Error;
  ASSERT_TRUE(paramsFromArtifact(Decoded, Params, &Error)) << Error;
  EXPECT_EQ(Params, Result.Best);
}

TEST(Tuner, EvaluateIsMemoizedAndDeterministic) {
  OpTrace Trace = recordedTrace(24, 5);
  Tuner Search(testModel(), TunerOptions{});
  Search.addTrace(Trace);
  ParameterSet Defaults;
  double Baseline = Search.evaluate(Defaults);
  // The defaults score 1.0 against themselves.
  EXPECT_NEAR(Baseline, 1.0, 1e-9);
  EXPECT_EQ(Search.evaluate(Defaults), Baseline);

  ParameterSet Other;
  Other.set(ParamId::ContextWindow, 16);
  double First = Search.evaluate(Other);
  EXPECT_EQ(Search.evaluate(Other), First);
}

TEST(ContextOptionsOverride, AdaptiveThresholdsApplyPerContext) {
  // A context with an AdaptiveOverride consults it instead of the
  // global AdaptiveConfig — the mechanism tuned replays and simulated
  // policies rely on for race-free parallel evaluation.
  AdaptiveThresholds Tuned;
  Tuned.List = 16;
  ContextOptions Options;
  Options.LogEvents = false;
  Options.AdaptiveOverride = Tuned;
  ListContext<int64_t> Ctx("tuner-test:override", ListVariant::AdaptiveList,
                           testModel(), SelectionRule::timeRule(), Options);
  List<int64_t> L = Ctx.createList();
  for (int64_t V = 0; V != 32; ++V)
    L.add(V);
  // With the global default threshold (80) this stays an array; the
  // override (16) makes the adaptive impl transition to a hash at 32
  // elements, observable through the footprint jump.
  ListContext<int64_t> Global("tuner-test:noshadow", ListVariant::AdaptiveList,
                              testModel(), SelectionRule::timeRule(),
                              ContextOptions{}.logEvents(false));
  List<int64_t> G = Global.createList();
  for (int64_t V = 0; V != 32; ++V)
    G.add(V);
  EXPECT_EQ(L.size(), G.size());
  EXPECT_GT(L.memoryFootprint(), G.memoryFootprint());
}

TEST(SwitchApplyTuning, InstallsArtifactAndRecordsProvenance) {
  // Build a tuned artifact with a distinctive window size.
  ParameterSet Params;
  Params.set(ParamId::ContextWindow, 72);
  Params.set(ParamId::AdaptiveListThreshold, 96);
  TuningArtifact Artifact = artifactFromParams(Params);
  Artifact.HostFingerprint = "test/apply";
  Artifact.Sweeps = 3;
  Artifact.CorpusDigest = "crc32:00000000";
  const char *Path = "tuner_apply_test.cstune";
  std::string Error;
  ASSERT_TRUE(writeTuningArtifactToFile(Path, Artifact, &Error)) << Error;

  TuningStats Before = Switch::telemetry().Tuning;
  ASSERT_TRUE(Switch::applyTuning(Path, &Error)) << Error;
  EXPECT_EQ(Switch::defaultContextOptions().WindowSize, 72u);
  EXPECT_EQ(AdaptiveConfig::global().thresholds().List, 96u);
  TuningStats After = Switch::telemetry().Tuning;
  EXPECT_EQ(After.Loads, Before.Loads + 1);
  EXPECT_EQ(After.Source, Path);
  EXPECT_EQ(After.Fingerprint, "test/apply");
  EXPECT_EQ(After.Parameters, NumTunableParams);

  // A corrupt artifact is counted and rejected without changing the
  // installed configuration.
  FILE *F = std::fopen(Path, "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("cswitch-tuning-v2 garbage", F);
  std::fclose(F);
  EXPECT_FALSE(Switch::applyTuning(Path, &Error));
  EXPECT_FALSE(Error.empty());
  TuningStats Failed = Switch::telemetry().Tuning;
  EXPECT_EQ(Failed.LoadFailures, After.LoadFailures + 1);
  EXPECT_EQ(Switch::defaultContextOptions().WindowSize, 72u);

  std::remove(Path);

  // Restore the process defaults for other tests.
  Switch::configure(SwitchConfig{});
  AdaptiveConfig::global().setThresholds(AdaptiveThresholds{});
}

} // namespace

//===- ReplayerTest.cpp - Deterministic replay tests ----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Tests of the trace replayer: fidelity (a recorded workload replays
// with zero size mismatches), determinism (byte-identical decision logs
// and identical final variants across repeated runs and across thread
// counts), fixed-variant pinning, and the trace -> workload-profile
// aggregation the offline advisor builds on.
//
//===----------------------------------------------------------------------===//

#include "core/AllocationContext.h"
#include "model/DefaultModel.h"
#include "replay/Replayer.h"
#include "replay/TraceRecorder.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> testModel() {
  static std::shared_ptr<const PerformanceModel> Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

/// Records a two-site workload (a list and a set context sharing one
/// recorder) with a mix of hits, misses and positional ops.
OpTrace recordedTrace(size_t Instances) {
  TraceRecorder Rec;
  ContextOptions Options;
  Options.LogEvents = false;
  Options.Recorder = &Rec;
  ListContext<int64_t> Lists("replay-test:list", ListVariant::LinkedList,
                             testModel(), SelectionRule::timeRule(), Options);
  SetContext<int64_t> Sets("replay-test:set", SetVariant::SortedArraySet,
                           testModel(), SelectionRule::timeRule(), Options);
  SplitMix64 Rng(42);
  for (size_t I = 0; I != Instances; ++I) {
    List<int64_t> L = Lists.createList();
    Set<int64_t> S = Sets.createSet();
    size_t N = 8 + Rng.nextBelow(24);
    for (size_t Op = 0; Op != N; ++Op) {
      L.add(static_cast<int64_t>(Op));
      S.add(static_cast<int64_t>(Op % 12)); // Re-adds hit existing keys.
    }
    for (size_t Op = 0; Op != N; ++Op)
      (void)L.get(Rng.nextBelow(L.size()));
    (void)L.contains(static_cast<int64_t>(N / 2)); // Hit.
    (void)L.contains(-1);                          // Miss.
    (void)S.contains(3);
    (void)S.remove(static_cast<int64_t>(Rng.nextBelow(12)));
    L.removeAt(0);
    if (I % 3 == 0)
      L.clear();
  }
  return Rec.trace();
}

TEST(Replayer, FixedReplayExecutesFaithfully) {
  OpTrace Trace = recordedTrace(12);
  ASSERT_EQ(Trace.OpsDropped, 0u);
  ReplayOptions Options;
  Options.Mode = ReplayMode::Fixed;
  Replayer Replay(Trace, Options);
  ReplayResult Result = Replay.run();

  EXPECT_EQ(Result.OpsExecuted, Trace.Ops.size());
  EXPECT_EQ(Result.InstancesReplayed, Trace.InstancesSampled);
  // The fidelity bar: operand re-synthesis reproduces every recorded
  // collection size exactly.
  EXPECT_EQ(Result.SizeMismatches, 0u);
  EXPECT_EQ(Result.Evaluations, 0u); // No contexts in fixed mode.
  ASSERT_EQ(Result.Sites.size(), 2u);
  EXPECT_EQ(Result.Sites[0].FinalVariantIndex,
            static_cast<unsigned>(ListVariant::LinkedList));
  EXPECT_TRUE(Result.DecisionLog.empty());
}

TEST(Replayer, FixedVariantOverridePins) {
  OpTrace Trace = recordedTrace(6);
  ReplayOptions Options;
  Options.Mode = ReplayMode::Fixed;
  Options.FixedList = static_cast<unsigned>(ListVariant::ArrayList);
  Replayer Replay(Trace, Options);
  ReplayResult Result = Replay.run();
  EXPECT_EQ(Result.SizeMismatches, 0u);
  ASSERT_EQ(Result.Sites.size(), 2u);
  EXPECT_EQ(Result.Sites[0].FinalVariantIndex,
            static_cast<unsigned>(ListVariant::ArrayList));
  // The set site had no override: declared variant.
  EXPECT_EQ(Result.Sites[1].FinalVariantIndex,
            static_cast<unsigned>(SetVariant::SortedArraySet));
}

TEST(Replayer, EngineReplayIsDeterministic) {
  OpTrace Trace = recordedTrace(40);
  ReplayOptions Options;
  Options.Mode = ReplayMode::Engine;
  Options.Model = testModel();
  Options.Seed = 7;
  Options.EvalEveryOps = 64;
  Options.Context.WindowSize = 20;
  Options.Context.FinishedRatio = 0.5;
  Options.Context.LogEvents = false;

  Replayer Replay(Trace, Options);
  ReplayResult First = Replay.run();
  ReplayResult Second = Replay.run();

  EXPECT_GT(First.Evaluations, 0u);
  EXPECT_FALSE(First.DecisionLog.empty());
  EXPECT_EQ(First.SizeMismatches, 0u);
  // Two replays of the same (trace, options): byte-identical decision
  // logs and identical final variants — the determinism acceptance bar.
  EXPECT_EQ(First.DecisionLog, Second.DecisionLog);
  ASSERT_EQ(First.Sites.size(), Second.Sites.size());
  for (size_t I = 0; I != First.Sites.size(); ++I) {
    EXPECT_EQ(First.Sites[I].FinalVariantIndex,
              Second.Sites[I].FinalVariantIndex);
    EXPECT_EQ(First.Sites[I].Evaluations, Second.Sites[I].Evaluations);
    EXPECT_EQ(First.Sites[I].Switches, Second.Sites[I].Switches);
  }
}

TEST(Replayer, DecisionLogInvariantAcrossThreadCounts) {
  OpTrace Trace = recordedTrace(30);
  ReplayOptions Options;
  Options.Mode = ReplayMode::Engine;
  Options.Model = testModel();
  Options.EvalEveryOps = 64;
  Options.Context.WindowSize = 20;
  Options.Context.FinishedRatio = 0.5;
  Options.Context.LogEvents = false;

  Options.Threads = 1;
  ReplayResult Single = Replayer(Trace, Options).run();
  Options.Threads = 2;
  ReplayResult Dual = Replayer(Trace, Options).run();
  // Sites are partitioned across threads but each site's replay is
  // self-contained and logs concatenate in site order, so the decision
  // log does not depend on the thread count.
  EXPECT_EQ(Single.DecisionLog, Dual.DecisionLog);
  EXPECT_EQ(Single.OpsExecuted, Dual.OpsExecuted);
  EXPECT_EQ(Single.SizeMismatches, Dual.SizeMismatches);
  ASSERT_EQ(Single.Sites.size(), Dual.Sites.size());
  for (size_t I = 0; I != Single.Sites.size(); ++I)
    EXPECT_EQ(Single.Sites[I].FinalVariantIndex,
              Dual.Sites[I].FinalVariantIndex);
}

TEST(Replayer, SeedVariesOperandsNotFidelity) {
  OpTrace Trace = recordedTrace(10);
  ReplayOptions Options;
  Options.Mode = ReplayMode::Fixed;
  for (uint64_t Seed : {1u, 99u, 12345u}) {
    Options.Seed = Seed;
    ReplayResult Result = Replayer(Trace, Options).run();
    EXPECT_EQ(Result.SizeMismatches, 0u) << "seed " << Seed;
  }
}

TEST(Replayer, HandCraftedMapTraceReplaysExactly) {
  OpTrace Trace;
  Trace.Sites.push_back({"craft:map", AbstractionKind::Map,
                         static_cast<unsigned>(MapVariant::ArrayMap)});
  Trace.InstancesSampled = 1;
  Trace.Ops = {
      {0, 0, TraceOpKind::InstanceBegin, OpClass::None, 0, 0},
      {0, 0, TraceOpKind::Populate, OpClass::Miss, 1, 1},
      {0, 0, TraceOpKind::Populate, OpClass::Miss, 2, 2},
      {0, 0, TraceOpKind::Populate, OpClass::Hit, 2, 3}, // Overwrite.
      {0, 0, TraceOpKind::Contains, OpClass::Hit, 2, 4},
      {0, 0, TraceOpKind::Contains, OpClass::Miss, 2, 5},
      {0, 0, TraceOpKind::RemoveValue, OpClass::Hit, 1, 6},
      {0, 0, TraceOpKind::Iterate, OpClass::None, 1, 7},
      {0, 0, TraceOpKind::Clear, OpClass::None, 0, 8},
      {0, 0, TraceOpKind::InstanceEnd, OpClass::None, 0, 9},
  };
  ReplayOptions Options;
  Options.Mode = ReplayMode::Fixed;
  ReplayResult Result = Replayer(Trace, Options).run();
  EXPECT_EQ(Result.OpsExecuted, Trace.Ops.size());
  EXPECT_EQ(Result.SizeMismatches, 0u);
  EXPECT_EQ(Result.InstancesReplayed, 1u);
}

TEST(Replayer, SkipsOpsOfUnknownInstances) {
  // An instance whose begin marker was lost to the bounded buffer: its
  // ops are skipped, not crashed on.
  OpTrace Trace;
  Trace.Sites.push_back({"craft:list", AbstractionKind::List, 0});
  Trace.OpsDropped = 1;
  Trace.Ops = {
      {0, 9, TraceOpKind::Populate, OpClass::None, 1, 0},
      {0, 9, TraceOpKind::InstanceEnd, OpClass::None, 1, 1},
  };
  ReplayOptions Options;
  Options.Mode = ReplayMode::Fixed;
  ReplayResult Result = Replayer(Trace, Options).run();
  EXPECT_EQ(Result.OpsExecuted, 2u); // Scanned, but nothing to mutate.
  EXPECT_EQ(Result.InstancesReplayed, 0u);
  EXPECT_EQ(Result.SizeMismatches, 0u);
}

TEST(Replayer, AggregateTraceRebuildsPerInstanceProfiles) {
  OpTrace Trace;
  Trace.Sites.push_back({"craft:list", AbstractionKind::List, 0});
  Trace.Ops = {
      // Instance 0: three populates, one contains, finished.
      {0, 0, TraceOpKind::InstanceBegin, OpClass::None, 0, 0},
      {0, 0, TraceOpKind::Populate, OpClass::None, 1, 1},
      {0, 0, TraceOpKind::Populate, OpClass::None, 2, 2},
      {0, 0, TraceOpKind::Populate, OpClass::None, 3, 3},
      {0, 0, TraceOpKind::Contains, OpClass::Hit, 3, 4},
      {0, 0, TraceOpKind::InstanceEnd, OpClass::None, 3, 5},
      // Instance 1: a straggler (no end marker) with one indexed read.
      {0, 1, TraceOpKind::InstanceBegin, OpClass::None, 0, 6},
      {0, 1, TraceOpKind::Populate, OpClass::None, 1, 7},
      {0, 1, TraceOpKind::IndexGet, OpClass::Front, 1, 8},
  };
  std::vector<SiteProfile> Profiles = aggregateTrace(Trace);
  ASSERT_EQ(Profiles.size(), 1u);
  EXPECT_EQ(Profiles[0].Name, "craft:list");
  ASSERT_EQ(Profiles[0].Profiles.size(), 2u); // Stragglers included.
  const WorkloadProfile &P0 = Profiles[0].Profiles[0];
  EXPECT_EQ(P0.count(OperationKind::Populate), 3u);
  EXPECT_EQ(P0.count(OperationKind::Contains), 1u);
  EXPECT_EQ(P0.MaxSize, 3u);
  const WorkloadProfile &P1 = Profiles[0].Profiles[1];
  EXPECT_EQ(P1.count(OperationKind::Populate), 1u);
  EXPECT_EQ(P1.count(OperationKind::IndexAccess), 1u);
  EXPECT_EQ(P1.MaxSize, 1u);
}

TEST(Replayer, RecordedTraceSurvivesFormatRoundTripIntoReplay) {
  // The full pipeline: record -> encode -> decode -> replay.
  OpTrace Trace = recordedTrace(8);
  OpTrace Decoded;
  ASSERT_TRUE(decodeTrace(encodeTrace(Trace), Decoded));
  ASSERT_EQ(Decoded, Trace);
  ReplayOptions Options;
  Options.Mode = ReplayMode::Fixed;
  ReplayResult Result = Replayer(std::move(Decoded), Options).run();
  EXPECT_EQ(Result.SizeMismatches, 0u);
  EXPECT_EQ(Result.OpsExecuted, Trace.Ops.size());
}

TEST(Replayer, RecordedTraceDrivesOfflineAdvice) {
  // The cswitch_advisor path: record -> encode -> decode ->
  // aggregateTrace -> adviseOffline, with no second trace format.
  OpTrace Trace = recordedTrace(12);
  OpTrace Decoded;
  ASSERT_TRUE(decodeTrace(encodeTrace(Trace), Decoded));
  std::vector<SiteRecommendation> Report = adviseOffline(
      aggregateTrace(Decoded), *testModel(), SelectionRule::timeRule());
  ASSERT_EQ(Report.size(), 2u);
  EXPECT_EQ(Report[0].Site, "replay-test:list");
  EXPECT_EQ(Report[0].DeclaredVariantIndex,
            static_cast<unsigned>(ListVariant::LinkedList));
  EXPECT_EQ(Report[1].Site, "replay-test:set");
  EXPECT_EQ(Report[1].DeclaredVariantIndex,
            static_cast<unsigned>(SetVariant::SortedArraySet));
  for (const SiteRecommendation &Rec : Report)
    EXPECT_EQ(Rec.InstancesProfiled, 12u) << Rec.Site;
  // Positional reads on a LinkedList: the advice is ArrayList. The set
  // site is already the rule-best choice.
  ASSERT_TRUE(Report[0].RecommendedVariantIndex.has_value());
  EXPECT_EQ(*Report[0].RecommendedVariantIndex,
            static_cast<unsigned>(ListVariant::ArrayList));
  EXPECT_FALSE(Report[1].RecommendedVariantIndex.has_value());
}

} // namespace

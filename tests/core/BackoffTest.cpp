//===- BackoffTest.cpp - Monitoring back-off of converged contexts -------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the monitoring back-off (DESIGN.md §4.3): once a context's
/// keep streak passes convergence, its rounds open dormant — no slot is
/// claimed, evaluate() does no analysis — for 2^k - 1 evaluate() calls
/// and windows of creations; a switch or a capacity-hint move re-arms
/// k to 0. The concurrent live/dormant transition stress test lives
/// with the other window stress tests (ConcurrentMonitoringTest.cpp).
///
//===----------------------------------------------------------------------===//

#include "core/AllocationContext.h"
#include "model/DefaultModel.h"
#include "obs/Provenance.h"

#include <gtest/gtest.h>

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

/// Forces the provenance ledger on or off for one test and restores the
/// shipping default (off, registry empty) afterwards.
struct LedgerGuard {
  explicit LedgerGuard(bool Enabled) {
    obs::ProvenanceRegistry::global().clearForTest();
    obs::ProvenanceRegistry::setEnabled(Enabled);
  }
  ~LedgerGuard() {
    obs::ProvenanceRegistry::setEnabled(false);
    obs::ProvenanceRegistry::global().clearForTest();
  }
};

/// Append \p Size elements and iterate: ArrayList's home workload, so
/// every analyzed round keeps, with a capacity hint of \p Size.
void appendIterate(List<int64_t> &L, int64_t Size) {
  for (int64_t V = 0; V != Size; ++V)
    L.add(V);
  uint64_t Sum = 0;
  L.forEach([&Sum](const int64_t &V) { Sum += static_cast<uint64_t>(V); });
  EXPECT_EQ(Sum, static_cast<uint64_t>(Size * (Size - 1) / 2));
}

/// One monitoring tick: \p N instances live and die, then evaluate().
template <typename Fn>
bool tick(ListContext<int64_t> &Ctx, int N, Fn &&Workload) {
  for (int I = 0; I != N; ++I) {
    List<int64_t> L = Ctx.createList();
    Workload(L);
  }
  return Ctx.evaluate();
}

bool keepTick(ListContext<int64_t> &Ctx, int64_t Size = 200) {
  return tick(Ctx, 10, [Size](List<int64_t> &L) { appendIterate(L, Size); });
}

/// Ticks until a round opens dormant at back-off level \p Level.
void convergeTo(ListContext<int64_t> &Ctx, uint32_t Level) {
  for (int I = 0; I != 200; ++I) {
    ASSERT_FALSE(keepTick(Ctx));
    if (Ctx.roundDormant() && Ctx.backoffLevel() == Level)
      return;
  }
  FAIL() << "never backed off to level " << Level;
}

TEST(Backoff, StreakAdvancesWithoutLedger) {
  LedgerGuard Guard(false);
  ListContext<int64_t> Ctx("t:backoff-noledger", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  // Rounds 1-5 are analyzed; the fifth opens a dormant round (k = 1,
  // raised to 2 by its own keep), then k = 3 and the cap k = 4.
  for (int Round = 0; Round != 8; ++Round)
    EXPECT_FALSE(keepTick(Ctx));
  uint64_t CreatedBefore = Ctx.instancesCreated();
  uint64_t MonitoredBefore = Ctx.instancesMonitored();
  for (int Round = 8; Round != 40; ++Round)
    EXPECT_FALSE(keepTick(Ctx));

  // Analyzed rounds: 1-5, 9, 17, 33. evaluationCount() counts only
  // those, never a dormant evaluate() call.
  EXPECT_EQ(Ctx.evaluationCount(), 8u);
  EXPECT_EQ(Ctx.roundsSkipped(), 4u);
  EXPECT_EQ(Ctx.backoffLevel(), AllocationContextBase::MaxBackoffLevel);
  EXPECT_EQ(Ctx.switchCount(), 0u);
  // Over the last 32 ticks, at most one window in eight was monitored.
  uint64_t Created = Ctx.instancesCreated() - CreatedBefore;
  uint64_t Monitored = Ctx.instancesMonitored() - MonitoredBefore;
  EXPECT_EQ(Created, 320u);
  EXPECT_LE(Monitored * 8, Created);
  EXPECT_GT(Monitored, 0u);
  EXPECT_EQ(Ctx.instancesFinished(), Ctx.instancesMonitored());
}

TEST(Backoff, DormantRoundClaimsNoSlotAndSkipsAnalysis) {
  LedgerGuard Guard(true);
  ListContext<int64_t> Ctx("t:backoff-dormant", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  convergeTo(Ctx, 2);
  uint64_t Monitored = Ctx.instancesMonitored();
  uint64_t Evaluations = Ctx.evaluationCount();
  size_t Records =
      obs::ProvenanceRegistry::global().snapshotSites().at(0).Records.size();

  // A full window of live instances: none claims a slot.
  std::vector<List<int64_t>> Held;
  for (int I = 0; I != 10; ++I)
    Held.push_back(Ctx.createList());
  for (const List<int64_t> &L : Held)
    EXPECT_FALSE(L.isMonitored());
  Held.clear();
  EXPECT_EQ(Ctx.instancesMonitored(), Monitored);

  // 2^2 - 1 = 3 calls and 3 windows of creations end the round; every
  // call returns false without analyzing or recording a decision.
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_TRUE(Ctx.roundDormant());
  EXPECT_FALSE(keepTick(Ctx));
  EXPECT_TRUE(Ctx.roundDormant());
  EXPECT_FALSE(keepTick(Ctx));
  EXPECT_FALSE(Ctx.roundDormant());
  EXPECT_EQ(Ctx.evaluationCount(), Evaluations);
  EXPECT_EQ(Ctx.instancesMonitored(), Monitored);
  EXPECT_EQ(
      obs::ProvenanceRegistry::global().snapshotSites().at(0).Records.size(),
      Records);

  // The reopened window is live: the next tick is monitored and
  // analyzed, and its keep is recorded as converged.
  EXPECT_FALSE(keepTick(Ctx));
  EXPECT_EQ(Ctx.instancesMonitored(), Monitored + 10);
  EXPECT_EQ(Ctx.evaluationCount(), Evaluations + 1);
  std::vector<obs::SiteLedgerSnapshot> Sites =
      obs::ProvenanceRegistry::global().snapshotSites();
  ASSERT_EQ(Sites.at(0).Records.size(), Records + 1);
  EXPECT_EQ(Sites[0].Records.back().Outcome,
            obs::DecisionOutcome::Converged);
}

TEST(Backoff, DormantRoundNeedsCreationsAsWellAsCalls) {
  ListContext<int64_t> Ctx("t:backoff-tight", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  convergeTo(Ctx, 2);
  // A tight-loop evaluator with no creations cannot end the round.
  for (int I = 0; I != 100; ++I)
    EXPECT_FALSE(Ctx.evaluate());
  EXPECT_TRUE(Ctx.roundDormant());
  // 3 windows of creations, then one more call, end it.
  for (int I = 0; I != 30; ++I)
    List<int64_t> L = Ctx.createList();
  EXPECT_FALSE(Ctx.evaluate());
  EXPECT_FALSE(Ctx.roundDormant());
}

TEST(Backoff, SwitchRearmsToLevelZero) {
  ListContext<int64_t> Ctx("t:backoff-switch", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  convergeTo(Ctx, AllocationContextBase::MaxBackoffLevel);
  auto Lookups = [](List<int64_t> &L) {
    for (int64_t V = 0; V != 400; ++V)
      L.add(V);
    for (int64_t V = 0; V != 3000; ++V)
      (void)L.contains(V);
  };
  bool Switched = false;
  for (int I = 0; I != 16 && !Switched; ++I)
    Switched = tick(Ctx, 10, Lookups);
  ASSERT_TRUE(Switched);
  EXPECT_EQ(Ctx.currentVariant().name(), "HashArrayList");
  EXPECT_EQ(Ctx.backoffLevel(), 0u);
  // The round the switching analysis opened dormant reopened live, and
  // the next rounds are analyzed one per tick again.
  EXPECT_FALSE(Ctx.roundDormant());
  uint64_t Evaluations = Ctx.evaluationCount();
  for (int I = 0; I != 4; ++I) {
    EXPECT_FALSE(tick(Ctx, 10, Lookups));
    EXPECT_EQ(Ctx.evaluationCount(), Evaluations + I + 1);
  }
}

TEST(Backoff, CapacityHintMoveRearmsToLevelZero) {
  ListContext<int64_t> Ctx("t:backoff-hint", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  convergeTo(Ctx, AllocationContextBase::MaxBackoffLevel);
  EXPECT_EQ(Ctx.capacityHint(), 200u);
  // Same operations, sizes within [h/2, 2h]: still backed off.
  uint64_t Evaluations = Ctx.evaluationCount();
  for (int I = 0; I != 64 && Ctx.evaluationCount() == Evaluations; ++I)
    EXPECT_FALSE(keepTick(Ctx, 400));
  EXPECT_EQ(Ctx.capacityHint(), 400u);
  EXPECT_TRUE(Ctx.roundDormant());
  EXPECT_EQ(Ctx.backoffLevel(), AllocationContextBase::MaxBackoffLevel);

  // Sizes beyond 2h: the keep re-arms back-off and reopens the round.
  Evaluations = Ctx.evaluationCount();
  for (int I = 0; I != 64 && Ctx.evaluationCount() == Evaluations; ++I)
    EXPECT_FALSE(keepTick(Ctx, 1000));
  EXPECT_EQ(Ctx.capacityHint(), 1000u);
  EXPECT_EQ(Ctx.backoffLevel(), 0u);
  EXPECT_FALSE(Ctx.roundDormant());
  EXPECT_EQ(Ctx.switchCount(), 0u);
  Evaluations = Ctx.evaluationCount();
  EXPECT_FALSE(keepTick(Ctx, 1000));
  EXPECT_EQ(Ctx.evaluationCount(), Evaluations + 1);
}

TEST(Backoff, GrowthHintMoveKeepsTheStreak) {
  ListContext<int64_t> Ctx("t:backoff-growth", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  convergeTo(Ctx, AllocationContextBase::MaxBackoffLevel);
  ASSERT_EQ(Ctx.growthHint(), 200u);
  // Two instances in ten now reach 5000: the capacity hint stays at
  // 200, the growth hint follows them, and back-off stays at the cap.
  int Instance = 0;
  auto Skewed = [&Instance](List<int64_t> &L) {
    appendIterate(L, Instance++ % 10 < 8 ? 200 : 5000);
  };
  uint64_t Evaluations = Ctx.evaluationCount();
  for (int I = 0; I != 64 && Ctx.evaluationCount() == Evaluations; ++I)
    EXPECT_FALSE(tick(Ctx, 10, Skewed));
  EXPECT_EQ(Ctx.capacityHint(), 200u);
  EXPECT_EQ(Ctx.growthHint(), 5000u);
  EXPECT_TRUE(Ctx.roundDormant());
  EXPECT_EQ(Ctx.backoffLevel(), AllocationContextBase::MaxBackoffLevel);
}

TEST(Backoff, PhaseChangeAfterConvergenceSwitchesWithinCap) {
  // The Fig. 6 list scenario in miniature: contains-heavy, converged
  // on HashArrayList and backed off to the cap, then a search-and-
  // remove phase that ArrayList serves best. The change arrives right
  // as a dormant round opens, the worst case.
  ListContext<int64_t> Ctx("t:backoff-phase", ListVariant::LinkedList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  auto Contains = [](List<int64_t> &L) {
    for (int64_t V = 0; V != 300; ++V)
      L.add(V);
    for (int64_t V = 0; V != 2000; ++V)
      (void)L.contains(V);
  };
  auto SearchRemove = [](List<int64_t> &L) {
    for (int64_t V = 0; V != 300; ++V)
      L.add(V);
    for (int64_t V = 0; V != 300; ++V)
      (void)L.remove(V);
  };
  for (int I = 0; I != 200; ++I) {
    tick(Ctx, 10, Contains);
    if (Ctx.roundDormant() &&
        Ctx.backoffLevel() == AllocationContextBase::MaxBackoffLevel)
      break;
  }
  ASSERT_EQ(Ctx.currentVariant().name(), "HashArrayList");
  ASSERT_TRUE(Ctx.roundDormant());

  int Calls = 0;
  bool Switched = false;
  while (!Switched && Calls != 64) {
    ++Calls;
    Switched = tick(Ctx, 10, SearchRemove);
  }
  ASSERT_TRUE(Switched);
  EXPECT_EQ(Ctx.currentVariant().name(), "ArrayList");
  // 2^4 - 1 dormant calls, then the live round that switches.
  EXPECT_EQ(Calls, 1 << AllocationContextBase::MaxBackoffLevel);
  EXPECT_EQ(Ctx.backoffLevel(), 0u);
}

} // namespace

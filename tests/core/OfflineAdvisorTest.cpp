//===- OfflineAdvisorTest.cpp - Offline advisor tests ------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/OfflineAdvisor.h"
#include "core/AllocationContext.h"
#include "model/DefaultModel.h"

#include <gtest/gtest.h>

using namespace cswitch;

namespace {

PerformanceModel &model() {
  static PerformanceModel Model = defaultPerformanceModel();
  return Model;
}

/// The default model with MutexList's time rows a hundredth of
/// ArrayList's: the cheapest list variant on every workload, and one a
/// sequential context never considers.
PerformanceModel cheapMutexListModel() {
  PerformanceModel Model = defaultPerformanceModel();
  for (OperationKind Op : AllOperationKinds) {
    std::vector<double> Coeffs =
        Model.cost(VariantId::of(ListVariant::ArrayList), Op,
                   CostDimension::Time)
            .coefficients();
    for (double &C : Coeffs)
      C *= 0.01;
    Model.setCost(VariantId::of(ListVariant::MutexList), Op,
                  CostDimension::Time, Polynomial(std::move(Coeffs)));
  }
  return Model;
}

WorkloadProfile lookupHeavyProfile() {
  WorkloadProfile P;
  P.record(OperationKind::Populate, 400);
  P.record(OperationKind::Contains, 3000);
  P.recordSize(400);
  return P;
}

TEST(ProfileAggregator, CollectsProfiles) {
  ProfileAggregator Agg("site:a", AbstractionKind::Set,
                        static_cast<unsigned>(SetVariant::ChainedHashSet));
  EXPECT_EQ(Agg.instanceCount(), 0u);
  Agg.onInstanceFinished(0, lookupHeavyProfile());
  Agg.onInstanceFinished(1, lookupHeavyProfile());
  EXPECT_EQ(Agg.instanceCount(), 2u);
  EXPECT_EQ(Agg.profile().Profiles.size(), 2u);
  EXPECT_EQ(Agg.site(), "site:a");
}

TEST(OfflineAdvisor, RecommendsOpenHashForLookupHeavySets) {
  ProfileAggregator Agg("site:b", AbstractionKind::Set,
                        static_cast<unsigned>(SetVariant::ChainedHashSet));
  for (int I = 0; I != 10; ++I)
    Agg.onInstanceFinished(0, lookupHeavyProfile());
  std::vector<SiteRecommendation> Report =
      adviseOffline({Agg.profile()}, model(), SelectionRule::timeRule());
  ASSERT_EQ(Report.size(), 1u);
  ASSERT_TRUE(Report[0].RecommendedVariantIndex.has_value());
  EXPECT_EQ(*Report[0].RecommendedVariantIndex,
            static_cast<unsigned>(SetVariant::OpenHashSet));
  EXPECT_LT(Report[0].improvementRatio(CostDimension::Time), 0.8);
  EXPECT_EQ(Report[0].InstancesProfiled, 10u);
}

TEST(OfflineAdvisor, KeepsDeclaredVariantWhenAlreadyBest) {
  ProfileAggregator Agg("site:c", AbstractionKind::Set,
                        static_cast<unsigned>(SetVariant::OpenHashSet));
  for (int I = 0; I != 5; ++I)
    Agg.onInstanceFinished(0, lookupHeavyProfile());
  std::vector<SiteRecommendation> Report =
      adviseOffline({Agg.profile()}, model(), SelectionRule::timeRule());
  ASSERT_EQ(Report.size(), 1u);
  EXPECT_FALSE(Report[0].RecommendedVariantIndex.has_value());
  EXPECT_DOUBLE_EQ(Report[0].improvementRatio(CostDimension::Time), 1.0);
}

TEST(OfflineAdvisor, NoProfilesMeansNoRecommendation) {
  ProfileAggregator Agg("site:d", AbstractionKind::List,
                        static_cast<unsigned>(ListVariant::ArrayList));
  std::vector<SiteRecommendation> Report =
      adviseOffline({Agg.profile()}, model(), SelectionRule::timeRule());
  ASSERT_EQ(Report.size(), 1u);
  EXPECT_FALSE(Report[0].RecommendedVariantIndex.has_value());
  EXPECT_EQ(Report[0].InstancesProfiled, 0u);
}

TEST(OfflineAdvisor, AgreesWithOnlineContextOnStableWorkloads) {
  // The central consistency property: offline advice computed from the
  // same profiles the online context analyzed must name the same
  // variant (the two differ only on *shifting* workloads). The second
  // model makes a concurrent-tier variant the cheapest list; the
  // sequential context never considers it, and neither may the advice.
  for (const PerformanceModel &Base :
       {defaultPerformanceModel(), cheapMutexListModel()}) {
    auto SharedModel = std::make_shared<const PerformanceModel>(Base);
    ContextOptions Options;
    Options.WindowSize = 10;
    Options.LogEvents = false;
    ListContext<int64_t> Ctx("site:e", ListVariant::ArrayList, SharedModel,
                             SelectionRule::timeRule(), Options);
    ProfileAggregator Agg("site:e", AbstractionKind::List,
                          static_cast<unsigned>(ListVariant::ArrayList));
    for (int I = 0; I != 10; ++I) {
      List<int64_t> L = Ctx.createList();
      for (int64_t V = 0; V != 400; ++V)
        L.add(V);
      for (int64_t V = 0; V != 3000; ++V)
        (void)L.contains(V);
      // Mirror the same workload into the offline aggregator.
      WorkloadProfile P;
      P.record(OperationKind::Populate, 400);
      P.record(OperationKind::Contains, 3000);
      P.recordSize(400);
      Agg.onInstanceFinished(0, P);
    }
    ASSERT_TRUE(Ctx.evaluate());
    std::vector<SiteRecommendation> Report = adviseOffline(
        {Agg.profile()}, *SharedModel, SelectionRule::timeRule());
    ASSERT_TRUE(Report[0].RecommendedVariantIndex.has_value());
    EXPECT_EQ(*Report[0].RecommendedVariantIndex,
              Ctx.currentVariantIndex());
    EXPECT_FALSE(isConcurrentVariant(AbstractionKind::List,
                                     *Report[0].RecommendedVariantIndex));
  }
}

TEST(OfflineAdvisor, SequentialSiteNeverGetsAConcurrentVariant) {
  // Every concurrent-tier variant made nearly free: without the
  // sequential tier mask each would win under every rule.
  PerformanceModel Model = defaultPerformanceModel();
  const AbstractionKind Kinds[] = {AbstractionKind::List,
                                   AbstractionKind::Set,
                                   AbstractionKind::Map};
  for (AbstractionKind Kind : Kinds)
    for (unsigned V = firstConcurrentVariant(Kind);
         V != numVariantsOf(Kind); ++V)
      for (OperationKind Op : AllOperationKinds)
        for (CostDimension Dim : {CostDimension::Time, CostDimension::Alloc})
          Model.setCost({Kind, V}, Op, Dim, Polynomial({1e-6}));

  for (AbstractionKind Kind : Kinds)
    for (const char *RuleName : {"rtime", "ralloc", "renergy", "impossible"}) {
      SelectionRule Rule;
      ASSERT_TRUE(SelectionRule::fromName(RuleName, Rule));
      ProfileAggregator Agg("site:seq", Kind, 0);
      for (int I = 0; I != 10; ++I)
        Agg.onInstanceFinished(0, lookupHeavyProfile());
      std::vector<SiteRecommendation> Report =
          adviseOffline({Agg.profile()}, Model, Rule);
      ASSERT_EQ(Report.size(), 1u);
      if (Report[0].RecommendedVariantIndex) {
        EXPECT_FALSE(
            isConcurrentVariant(Kind, *Report[0].RecommendedVariantIndex))
            << abstractionKindName(Kind) << " under " << RuleName << ": "
            << Report[0].toString();
      }
    }
}

TEST(OfflineAdvisor, SingleStaticChoiceCannotFollowPhases) {
  // The limitation the paper's online approach removes: over a workload
  // with two opposing phases, the offline advisor merges everything
  // into one compromise choice.
  ProfileAggregator Agg("site:f", AbstractionKind::List,
                        static_cast<unsigned>(ListVariant::ArrayList));
  // Phase 1: lookup-heavy (favors HashArrayList).
  for (int I = 0; I != 10; ++I)
    Agg.onInstanceFinished(0, lookupHeavyProfile());
  // Phase 2: remove-heavy (favors ArrayList).
  for (int I = 0; I != 10; ++I) {
    WorkloadProfile P;
    P.record(OperationKind::Populate, 300);
    P.record(OperationKind::Remove, 600);
    P.recordSize(300);
    Agg.onInstanceFinished(0, P);
  }
  std::vector<SiteRecommendation> Report =
      adviseOffline({Agg.profile()}, model(), SelectionRule::timeRule());
  // Whatever it recommends, it is exactly one choice for both phases —
  // while the online framework switched per phase (see
  // AllocationContext.ContinuousAdaptationCanSwitchBack).
  ASSERT_EQ(Report.size(), 1u);
  SUCCEED();
}

TEST(OfflineAdvisor, RetentionCapMergesOverflow) {
  ProfileAggregator Agg("site:g", AbstractionKind::Set,
                        static_cast<unsigned>(SetVariant::ChainedHashSet));
  WorkloadProfile P;
  P.record(OperationKind::Contains, 1);
  P.recordSize(1);
  for (size_t I = 0; I != ProfileAggregator::MaxRetainedProfiles + 100;
       ++I)
    Agg.onInstanceFinished(0, P);
  EXPECT_EQ(Agg.instanceCount(),
            ProfileAggregator::MaxRetainedProfiles + 100);
  EXPECT_EQ(Agg.profile().Profiles.size(),
            ProfileAggregator::MaxRetainedProfiles);
}

TEST(SiteRecommendation, ToStringIsReadable) {
  ProfileAggregator Agg("Foo.cpp:12", AbstractionKind::Set,
                        static_cast<unsigned>(SetVariant::ChainedHashSet));
  for (int I = 0; I != 3; ++I)
    Agg.onInstanceFinished(0, lookupHeavyProfile());
  std::vector<SiteRecommendation> Report =
      adviseOffline({Agg.profile()}, model(), SelectionRule::timeRule());
  std::string Line = Report[0].toString();
  EXPECT_NE(Line.find("Foo.cpp:12"), std::string::npos);
  EXPECT_NE(Line.find("ChainedHashSet -> OpenHashSet"),
            std::string::npos);
  EXPECT_NE(Line.find("3 instances"), std::string::npos);
}

} // namespace

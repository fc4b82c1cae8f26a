//===- DefaultModelTest.cpp - Built-in model sanity tests --------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The built-in model must encode the cost orderings the selection
/// rules rely on (they are what every real machine exhibits and what the
/// paper's narrative assumes). These tests pin those orderings.
///
//===----------------------------------------------------------------------===//

#include "model/DefaultModel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace cswitch;

namespace {

class DefaultModelTest : public ::testing::Test {
protected:
  PerformanceModel Model = defaultPerformanceModel();

  double time(VariantId Id, OperationKind Op, double Size) {
    return Model.operationCost(Id, Op, CostDimension::Time, Size);
  }
  double alloc(VariantId Id, OperationKind Op, double Size) {
    return Model.operationCost(Id, Op, CostDimension::Alloc, Size);
  }
};

TEST_F(DefaultModelTest, EveryVariantIsCovered) {
  for (ListVariant V : AllListVariants)
    EXPECT_TRUE(Model.hasVariant(VariantId::of(V)));
  for (SetVariant V : AllSetVariants)
    EXPECT_TRUE(Model.hasVariant(VariantId::of(V)));
  for (MapVariant V : AllMapVariants)
    EXPECT_TRUE(Model.hasVariant(VariantId::of(V)));
}

TEST_F(DefaultModelTest, EveryCriticalOpHasTimeCost) {
  // Lists model all six ops; sets/maps model the four set/map-relevant
  // ones (populate, contains, iterate, remove).
  for (ListVariant V : AllListVariants)
    for (OperationKind Op : AllOperationKinds)
      EXPECT_GT(time(VariantId::of(V), Op, 100.0), 0.0)
          << listVariantName(V) << " " << operationKindName(Op);
  for (SetVariant V : AllSetVariants)
    for (OperationKind Op :
         {OperationKind::Populate, OperationKind::Contains,
          OperationKind::Iterate, OperationKind::Remove})
      EXPECT_GT(time(VariantId::of(V), Op, 100.0), 0.0)
          << setVariantName(V) << " " << operationKindName(Op);
  for (MapVariant V : AllMapVariants)
    for (OperationKind Op :
         {OperationKind::Populate, OperationKind::Contains,
          OperationKind::Iterate, OperationKind::Remove})
      EXPECT_GT(time(VariantId::of(V), Op, 100.0), 0.0)
          << mapVariantName(V) << " " << operationKindName(Op);
}

TEST_F(DefaultModelTest, ArrayScansAreLinearHashLookupsAreFlat) {
  VariantId ArrayL = VariantId::of(ListVariant::ArrayList);
  VariantId HashL = VariantId::of(ListVariant::HashArrayList);
  double ArraySmall = time(ArrayL, OperationKind::Contains, 10);
  double ArrayLarge = time(ArrayL, OperationKind::Contains, 1000);
  double HashSmall = time(HashL, OperationKind::Contains, 10);
  double HashLarge = time(HashL, OperationKind::Contains, 1000);
  EXPECT_GT(ArrayLarge, ArraySmall * 10); // linear growth.
  EXPECT_NEAR(HashLarge, HashSmall, HashSmall); // ~flat.
}

TEST_F(DefaultModelTest, SmallArraysBeatHashesOnLookups) {
  // The paper's motivating claim (§1): for a few elements, a linear
  // array search beats a hash lookup.
  EXPECT_LT(time(VariantId::of(SetVariant::ArraySet),
                 OperationKind::Contains, 5),
            time(VariantId::of(SetVariant::ChainedHashSet),
                 OperationKind::Contains, 5));
  EXPECT_LT(time(VariantId::of(MapVariant::ArrayMap),
                 OperationKind::Contains, 5),
            time(VariantId::of(MapVariant::OpenHashMap),
                 OperationKind::Contains, 5));
  // And lose at large sizes.
  EXPECT_GT(time(VariantId::of(SetVariant::ArraySet),
                 OperationKind::Contains, 1000),
            time(VariantId::of(SetVariant::ChainedHashSet),
                 OperationKind::Contains, 1000));
}

TEST_F(DefaultModelTest, OpenAddressingBeatsChainingOnLookups) {
  EXPECT_LT(time(VariantId::of(SetVariant::OpenHashSet),
                 OperationKind::Contains, 500),
            time(VariantId::of(SetVariant::ChainedHashSet),
                 OperationKind::Contains, 500));
  EXPECT_LT(time(VariantId::of(MapVariant::OpenHashMap),
                 OperationKind::Contains, 500),
            time(VariantId::of(MapVariant::ChainedHashMap),
                 OperationKind::Contains, 500));
}

TEST_F(DefaultModelTest, CompactTradesLookupSpeedForBytes) {
  VariantId Open = VariantId::of(SetVariant::OpenHashSet);
  VariantId Compact = VariantId::of(SetVariant::CompactHashSet);
  EXPECT_GT(time(Compact, OperationKind::Contains, 500),
            time(Open, OperationKind::Contains, 500));
  EXPECT_LT(alloc(Compact, OperationKind::Populate, 500),
            alloc(Open, OperationKind::Populate, 500));
}

TEST_F(DefaultModelTest, LinkedListPaysForIndexAccess) {
  EXPECT_GT(time(VariantId::of(ListVariant::LinkedList),
                 OperationKind::IndexAccess, 500),
            10 * time(VariantId::of(ListVariant::ArrayList),
                      OperationKind::IndexAccess, 500));
}

TEST_F(DefaultModelTest, HashArrayListRemoveSlowerThanArrayList) {
  // The very mismatch the paper's own model gets wrong (§5.1): here the
  // model encodes the real ordering.
  EXPECT_GT(time(VariantId::of(ListVariant::HashArrayList),
                 OperationKind::Remove, 200),
            time(VariantId::of(ListVariant::ArrayList),
                 OperationKind::Remove, 200));
}

TEST_F(DefaultModelTest, NodeBasedVariantsAllocateMost) {
  EXPECT_GT(alloc(VariantId::of(SetVariant::ChainedHashSet),
                  OperationKind::Populate, 100),
            alloc(VariantId::of(SetVariant::ArraySet),
                  OperationKind::Populate, 100));
  EXPECT_GT(alloc(VariantId::of(MapVariant::LinkedHashMap),
                  OperationKind::Populate, 100),
            alloc(VariantId::of(MapVariant::OpenHashMap),
                  OperationKind::Populate, 100));
}

TEST_F(DefaultModelTest, LookupsAllocateNothing) {
  for (SetVariant V : AllSetVariants)
    EXPECT_DOUBLE_EQ(
        alloc(VariantId::of(V), OperationKind::Contains, 100), 0.0);
}

/// Every (variant, operation, stored dimension) cell of \p Kind.
template <typename Fn> void forEachCell(AbstractionKind Kind, Fn &&Visit) {
  for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
    for (OperationKind Op : AllOperationKinds)
      for (CostDimension Dim : AllCostDimensions)
        Visit(VariantId{Kind, V}, Op, Dim);
}

constexpr AbstractionKind AllKinds[] = {
    AbstractionKind::List, AbstractionKind::Set, AbstractionKind::Map};

TEST(AugmentConcurrentCoverage, CopiesTheDefaultConcurrentTier) {
  // Backfilling an empty model yields exactly the default model's
  // concurrent rows (every dimension, derived energy included) and
  // nothing else.
  PerformanceModel Model;
  augmentConcurrentCoverage(Model);
  PerformanceModel Defaults = defaultPerformanceModel();
  for (AbstractionKind Kind : AllKinds)
    forEachCell(Kind, [&](VariantId Id, OperationKind Op, CostDimension Dim) {
      if (isConcurrentVariant(Kind, Id.Index))
        EXPECT_EQ(Model.cost(Id, Op, Dim), Defaults.cost(Id, Op, Dim))
            << Id.name() << " " << operationKindName(Op) << " "
            << costDimensionName(Dim);
      else
        EXPECT_TRUE(Model.cost(Id, Op, Dim).coefficients().empty());
    });
}

TEST(LoadModelFile, SequentialOnlyModelCoversEveryConcurrentVariant) {
  // The checked-in measured model covers the sequential tier only.
  const std::string Path = CSWITCH_DATA_DIR "/cswitch_model.txt";
  PerformanceModel Raw;
  ASSERT_TRUE(Raw.loadFromFile(Path));
  for (AbstractionKind Kind : AllKinds)
    for (unsigned V = firstConcurrentVariant(Kind); V != numVariantsOf(Kind);
         ++V)
      ASSERT_FALSE(Raw.hasVariant({Kind, V}));

  PerformanceModel Model;
  std::string Error;
  ASSERT_TRUE(loadModelFile(Path, Model, &Error)) << Error;
  PerformanceModel Defaults = defaultPerformanceModel();
  for (AbstractionKind Kind : AllKinds) {
    for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
      EXPECT_TRUE(Model.hasVariant({Kind, V})) << VariantId{Kind, V}.name();
    // Measured rows stay as loaded; concurrent rows are the defaults'.
    forEachCell(Kind, [&](VariantId Id, OperationKind Op, CostDimension Dim) {
      const PerformanceModel &From =
          isConcurrentVariant(Kind, Id.Index) ? Defaults : Raw;
      EXPECT_EQ(Model.cost(Id, Op, Dim), From.cost(Id, Op, Dim))
          << Id.name() << " " << operationKindName(Op) << " "
          << costDimensionName(Dim);
    });
  }
}

TEST(LoadModelFile, EmptyPathSelectsTheDefaultModel) {
  PerformanceModel Model;
  ASSERT_TRUE(loadModelFile("", Model));
  EXPECT_TRUE(Model == defaultPerformanceModel());
}

TEST(LoadModelFile, RefusedFileLeavesTheModelUnchanged) {
  const std::string Path = ::testing::TempDir() + "/cswitch_bad_model.txt";
  {
    std::ofstream OS(Path);
    OS << "cswitch-performance-model v1\nlist ArrayList populate time x\n";
  }
  PerformanceModel Model;
  Model.setCost(VariantId::of(ListVariant::ArrayList), OperationKind::Populate,
                CostDimension::Time, Polynomial({1.0}));
  const PerformanceModel Before = Model;
  std::string Error;
  EXPECT_FALSE(loadModelFile(Path, Model, &Error));
  EXPECT_EQ(Error.rfind("line 2:", 0), 0u) << Error;
  EXPECT_TRUE(Model == Before);
  EXPECT_FALSE(loadModelFile(Path + ".absent", Model, &Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
  EXPECT_TRUE(Model == Before);
  std::remove(Path.c_str());
}

} // namespace

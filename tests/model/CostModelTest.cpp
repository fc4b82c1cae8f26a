//===- CostModelTest.cpp - Performance model unit tests ---------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "model/CostModel.h"
#include "model/DefaultModel.h"

#include "core/SelectionRule.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

using namespace cswitch;

namespace {

TEST(CostDimension, NamesRoundTrip) {
  for (CostDimension Dim : AllCostDimensions) {
    CostDimension Out;
    ASSERT_TRUE(parseCostDimension(costDimensionName(Dim), Out));
    EXPECT_EQ(Out, Dim);
  }
  CostDimension Out;
  EXPECT_FALSE(parseCostDimension("carbon", Out));
}

TEST(PerformanceModel, UnsetCostsAreZero) {
  PerformanceModel Model;
  VariantId Id = VariantId::of(ListVariant::ArrayList);
  EXPECT_TRUE(Model.cost(Id, OperationKind::Contains, CostDimension::Time)
                  .coefficients()
                  .empty());
  EXPECT_DOUBLE_EQ(Model.operationCost(Id, OperationKind::Contains,
                                       CostDimension::Time, 100.0),
                   0.0);
  EXPECT_FALSE(Model.hasVariant(Id));
}

TEST(PerformanceModel, SetAndEvaluateCost) {
  PerformanceModel Model;
  VariantId Id = VariantId::of(SetVariant::OpenHashSet);
  Model.setCost(Id, OperationKind::Contains, CostDimension::Time,
                Polynomial({7.0, 0.01}));
  EXPECT_DOUBLE_EQ(Model.operationCost(Id, OperationKind::Contains,
                                       CostDimension::Time, 100.0),
                   8.0);
  EXPECT_TRUE(Model.hasVariant(Id));
  // Distinct (variant, op, dim) slots do not alias.
  EXPECT_DOUBLE_EQ(Model.operationCost(Id, OperationKind::Contains,
                                       CostDimension::Alloc, 100.0),
                   0.0);
  EXPECT_DOUBLE_EQ(
      Model.operationCost(VariantId::of(SetVariant::ChainedHashSet),
                          OperationKind::Contains, CostDimension::Time,
                          100.0),
      0.0);
}

TEST(PerformanceModel, NegativePredictionsClampToZero) {
  PerformanceModel Model;
  VariantId Id = VariantId::of(MapVariant::ArrayMap);
  Model.setCost(Id, OperationKind::Populate, CostDimension::Time,
                Polynomial({-100.0, 1.0}));
  EXPECT_DOUBLE_EQ(Model.operationCost(Id, OperationKind::Populate,
                                       CostDimension::Time, 10.0),
                   0.0);
}

TEST(PerformanceModel, TotalCostImplementsPaperFormula) {
  // tc_W(V) = sum_op N_op * cost_op(maxsize).
  PerformanceModel Model;
  VariantId Id = VariantId::of(ListVariant::ArrayList);
  Model.setCost(Id, OperationKind::Populate, CostDimension::Time,
                Polynomial({4.0}));
  Model.setCost(Id, OperationKind::Contains, CostDimension::Time,
                Polynomial({2.0, 0.5}));
  WorkloadProfile W;
  W.record(OperationKind::Populate, 100);
  W.record(OperationKind::Contains, 10);
  W.recordSize(100);
  // 100*4 + 10*(2 + 0.5*100) = 400 + 520 = 920.
  EXPECT_DOUBLE_EQ(Model.totalCost(Id, W, CostDimension::Time), 920.0);
  EXPECT_DOUBLE_EQ(Model.totalCost(Id, W, CostDimension::Alloc), 0.0);
}

TEST(PerformanceModel, SaveLoadRoundTrip) {
  PerformanceModel Model = defaultPerformanceModel();
  std::ostringstream OS;
  Model.save(OS);
  PerformanceModel Loaded;
  std::istringstream IS(OS.str());
  ASSERT_TRUE(Loaded.load(IS));
  for (ListVariant V : AllListVariants)
    for (OperationKind Op : AllOperationKinds)
      for (CostDimension Dim : AllCostDimensions)
        EXPECT_EQ(Loaded.cost(VariantId::of(V), Op, Dim),
                  Model.cost(VariantId::of(V), Op, Dim));
  for (SetVariant V : AllSetVariants)
    for (OperationKind Op : AllOperationKinds)
      for (CostDimension Dim : AllCostDimensions)
        EXPECT_EQ(Loaded.cost(VariantId::of(V), Op, Dim),
                  Model.cost(VariantId::of(V), Op, Dim));
  for (MapVariant V : AllMapVariants)
    for (OperationKind Op : AllOperationKinds)
      for (CostDimension Dim : AllCostDimensions)
        EXPECT_EQ(Loaded.cost(VariantId::of(V), Op, Dim),
                  Model.cost(VariantId::of(V), Op, Dim));
}

TEST(PerformanceModel, LoadRejectsBadHeader) {
  PerformanceModel Model;
  std::istringstream IS("not-a-model\nlist ArrayList populate time 1");
  EXPECT_FALSE(Model.load(IS));
}

TEST(PerformanceModel, LoadRejectsUnknownVariantOpDim) {
  {
    PerformanceModel Model;
    std::istringstream IS(
        "cswitch-performance-model v1\nlist Bogus populate time 1");
    EXPECT_FALSE(Model.load(IS));
  }
  {
    PerformanceModel Model;
    std::istringstream IS(
        "cswitch-performance-model v1\nlist ArrayList bogus time 1");
    EXPECT_FALSE(Model.load(IS));
  }
  {
    PerformanceModel Model;
    std::istringstream IS(
        "cswitch-performance-model v1\nlist ArrayList populate bogus 1");
    EXPECT_FALSE(Model.load(IS));
  }
  {
    PerformanceModel Model;
    std::istringstream IS(
        "cswitch-performance-model v1\nblob ArrayList populate time 1");
    EXPECT_FALSE(Model.load(IS));
  }
}

TEST(PerformanceModel, LoadRejectsMissingCoefficients) {
  PerformanceModel Model;
  std::istringstream IS(
      "cswitch-performance-model v1\nlist ArrayList populate time");
  EXPECT_FALSE(Model.load(IS));
}

TEST(PerformanceModel, LoadRejectsNonFiniteCoefficients) {
  // The number pattern has no NaN or Inf spelling, so those words are
  // refused as trailing garbage. An out-of-range literal like 1e999 does
  // not parse either (it is not clamped): followed by another
  // coefficient it is refused the same way. (As the last word of a row
  // it ends the row; see ModelDocumentTest.)
  for (const char *Bad :
       {"nan", "-nan", "inf", "-inf", "infinity", "1e999 1", "-1e999 1"}) {
    PerformanceModel Model;
    std::istringstream IS(std::string("cswitch-performance-model v1\n"
                                      "list ArrayList populate time 4 ") +
                          Bad + "\n");
    std::string Error;
    EXPECT_FALSE(Model.load(IS, &Error)) << Bad;
    EXPECT_NE(Error.find("line 2: trailing garbage"), std::string::npos)
        << Error;
  }
}

TEST(PerformanceModel, LoadRejectsDuplicateRows) {
  PerformanceModel Model;
  std::istringstream IS("cswitch-performance-model v1\n"
                        "list ArrayList populate time 4 0.5\n"
                        "list ArrayList populate time 9\n");
  std::string Error;
  EXPECT_FALSE(Model.load(IS, &Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
  EXPECT_NE(Error.find("duplicate"), std::string::npos) << Error;
  // The same cell on different dimensions (or variants) is not a
  // duplicate.
  PerformanceModel Ok;
  std::istringstream IS2("cswitch-performance-model v1\n"
                         "list ArrayList populate time 4\n"
                         "list ArrayList populate alloc 4\n"
                         "list LinkedList populate time 4\n");
  EXPECT_TRUE(Ok.load(IS2));
}

TEST(PerformanceModel, LoadRejectsTrailingGarbage) {
  PerformanceModel Model;
  std::istringstream IS("cswitch-performance-model v1\n"
                        "list ArrayList populate time 4 0.5 bogus\n");
  std::string Error;
  EXPECT_FALSE(Model.load(IS, &Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
}

TEST(PerformanceModel, LoadErrorNamesTheFailingLine) {
  PerformanceModel Model;
  std::istringstream IS("cswitch-performance-model v1\n"
                        "# comment\n"
                        "list ArrayList populate time 4\n"
                        "set Bogus populate time 4\n");
  std::string Error;
  EXPECT_FALSE(Model.load(IS, &Error));
  EXPECT_NE(Error.find("line 4"), std::string::npos) << Error;
  EXPECT_NE(Error.find("Bogus"), std::string::npos) << Error;
}

TEST(PerformanceModel, LoadSkipsCommentsAndBlankLines) {
  PerformanceModel Model;
  std::istringstream IS("cswitch-performance-model v1\n"
                        "# a comment\n"
                        "\n"
                        "list ArrayList populate time 4 0.5\n");
  ASSERT_TRUE(Model.load(IS));
  EXPECT_DOUBLE_EQ(
      Model.operationCost(VariantId::of(ListVariant::ArrayList),
                          OperationKind::Populate, CostDimension::Time,
                          10.0),
      9.0);
}

TEST(PerformanceModel, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "/cswitch_model_test.txt";
  PerformanceModel Model = defaultPerformanceModel();
  ASSERT_TRUE(Model.saveToFile(Path));
  PerformanceModel Loaded;
  ASSERT_TRUE(Loaded.loadFromFile(Path));
  EXPECT_EQ(Loaded.cost(VariantId::of(MapVariant::OpenHashMap),
                        OperationKind::Contains, CostDimension::Time),
            Model.cost(VariantId::of(MapVariant::OpenHashMap),
                       OperationKind::Contains, CostDimension::Time));
  std::remove(Path.c_str());
}

TEST(PerformanceModel, LoadFromMissingFileFails) {
  PerformanceModel Model;
  EXPECT_FALSE(Model.loadFromFile("/nonexistent/path/model.txt"));
}

TEST(PerformanceModel, LoadRejectsOversizedPolynomial) {
  std::string Row = "list ArrayList populate time";
  for (size_t I = 0; I != MaxModelCoefficients; ++I)
    Row += " 1";
  PerformanceModel AtBound;
  std::istringstream Fits("cswitch-performance-model v1\n" + Row + "\n");
  EXPECT_TRUE(AtBound.load(Fits));

  PerformanceModel Model;
  std::istringstream IS("cswitch-performance-model v1\n" + Row + " 1\n");
  std::string Error;
  EXPECT_FALSE(Model.load(IS, &Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  EXPECT_NE(Error.find("16 coefficients"), std::string::npos) << Error;
}

TEST(PerformanceModel, FailedLoadLeavesModelUnchanged) {
  // The first two rows are valid and would overwrite cells; the third is
  // not, so the whole document is refused and nothing changes.
  PerformanceModel Model = defaultPerformanceModel();
  const PerformanceModel Before = Model;
  std::istringstream IS("cswitch-performance-model v1\n"
                        "list ArrayList populate time 1 2\n"
                        "list LinkedList contains alloc 9\n"
                        "set Bogus populate time 4\n");
  std::string Error;
  EXPECT_FALSE(Model.load(IS, &Error));
  EXPECT_NE(Error.find("line 4"), std::string::npos) << Error;
  EXPECT_TRUE(Model == Before);
}

TEST(PerformanceModel, LoadRejectsEnergyRows) {
  PerformanceModel Model;
  std::istringstream IS("cswitch-performance-model v1\n"
                        "list ArrayList populate time 4\n"
                        "list ArrayList populate energy 14\n");
  std::string Error;
  EXPECT_FALSE(Model.load(IS, &Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
  EXPECT_NE(Error.find("derived"), std::string::npos) << Error;
  EXPECT_FALSE(Model.hasVariant(VariantId::of(ListVariant::ArrayList)));
}

TEST(PerformanceModel, EnergyIsDerivedFromTimeAndAlloc) {
  PerformanceModel Model;
  VariantId Id = VariantId::of(ListVariant::ArrayList);
  OperationKind Op = OperationKind::Populate;
  auto Energy = [&] { return Model.cost(Id, Op, CostDimension::Energy); };
  auto Expected = [](const Polynomial &Time, const Polynomial &Alloc) {
    return Time.scaled(NanojoulesPerNanosecond) +
           Alloc.scaled(NanojoulesPerByte);
  };

  Model.setCost(Id, Op, CostDimension::Time, Polynomial({10.0, 0.5}));
  EXPECT_EQ(Energy(), Polynomial({35.0, 1.75}));
  Model.setCost(Id, Op, CostDimension::Alloc, Polynomial({100.0}));
  EXPECT_EQ(Energy(), Expected(Polynomial({10.0, 0.5}), Polynomial({100.0})));
  // Re-setting Time moves Energy; Contention does not touch it.
  Model.setCost(Id, Op, CostDimension::Time, Polynomial({20.0}));
  Model.setCost(Id, Op, CostDimension::Contention, Polynomial({0.0, 9.0}));
  EXPECT_EQ(Energy(), Expected(Polynomial({20.0}), Polynomial({100.0})));
  // Clearing both clears Energy, and with it the variant's coverage once
  // the contention cell goes too.
  Model.setCost(Id, Op, CostDimension::Time, Polynomial());
  Model.setCost(Id, Op, CostDimension::Alloc, Polynomial());
  EXPECT_TRUE(Energy().coefficients().empty());
  EXPECT_TRUE(Model.hasVariant(Id));
  Model.setCost(Id, Op, CostDimension::Contention, Polynomial());
  EXPECT_FALSE(Model.hasVariant(Id));
}

TEST(EnergyModel, LinearCombinationOfTimeAndAlloc) {
  PerformanceModel Model;
  VariantId Id = VariantId::of(SetVariant::OpenHashSet);
  Model.setCost(Id, OperationKind::Populate, CostDimension::Time,
                Polynomial({10.0, 0.5}));
  Model.setCost(Id, OperationKind::Populate, CostDimension::Alloc,
                Polynomial({100.0}));
  // energy(s) = P*(10 + 0.5 s) + E*100.
  EXPECT_DOUBLE_EQ(Model.operationCost(Id, OperationKind::Populate,
                                       CostDimension::Energy, 0.0),
                   NanojoulesPerNanosecond * 10.0 + NanojoulesPerByte * 100.0);
  EXPECT_DOUBLE_EQ(Model.operationCost(Id, OperationKind::Populate,
                                       CostDimension::Energy, 50.0),
                   NanojoulesPerNanosecond * 35.0 + NanojoulesPerByte * 100.0);
}

TEST(EnergyModel, EmptyTriplesStayEmpty) {
  // Energy exists only where time or alloc does: neither an untouched
  // cell nor a contention-only cell gets one.
  PerformanceModel Model;
  VariantId Mutex = VariantId::of(MapVariant::MutexHashMap);
  Model.setCost(Mutex, OperationKind::Contains, CostDimension::Contention,
                Polynomial({0.0, 5.0}));
  EXPECT_TRUE(Model
                  .cost(VariantId::of(ListVariant::ArrayList),
                        OperationKind::Contains, CostDimension::Energy)
                  .coefficients()
                  .empty());
  EXPECT_TRUE(Model.cost(Mutex, OperationKind::Contains, CostDimension::Energy)
                  .coefficients()
                  .empty());
}

TEST(EnergyModel, DefaultModelHasEnergyForEveryModeledTriple) {
  PerformanceModel Model = defaultPerformanceModel();
  for (SetVariant V : AllSetVariants) {
    for (OperationKind Op :
         {OperationKind::Populate, OperationKind::Contains,
          OperationKind::Iterate, OperationKind::Remove}) {
      EXPECT_GT(Model.operationCost(VariantId::of(V), Op,
                                    CostDimension::Energy, 100.0),
                0.0)
          << setVariantName(V) << " " << operationKindName(Op);
    }
  }
}

TEST(EnergyModel, EnergyTracksTimeButPenalizesAllocation) {
  // Two variants with equal time: the one allocating more must cost
  // more energy — the property that makes Renergy differ from Rtime.
  PerformanceModel Model;
  VariantId A = VariantId::of(SetVariant::OpenHashSet);
  VariantId B = VariantId::of(SetVariant::CompactHashSet);
  Model.setCost(A, OperationKind::Populate, CostDimension::Time,
                Polynomial({20.0}));
  Model.setCost(B, OperationKind::Populate, CostDimension::Time,
                Polynomial({20.0}));
  Model.setCost(A, OperationKind::Populate, CostDimension::Alloc,
                Polynomial({100.0}));
  Model.setCost(B, OperationKind::Populate, CostDimension::Alloc,
                Polynomial({20.0}));
  EXPECT_GT(Model.operationCost(A, OperationKind::Populate,
                                CostDimension::Energy, 10.0),
            Model.operationCost(B, OperationKind::Populate,
                                CostDimension::Energy, 10.0));
}

TEST(EnergyModel, SerializationRoundTripsEnergy) {
  // save() writes no energy rows; load() re-derives every one of them.
  PerformanceModel Model = defaultPerformanceModel();
  std::ostringstream OS;
  Model.save(OS);
  EXPECT_EQ(OS.str().find(" energy "), std::string::npos);
  PerformanceModel Loaded;
  std::istringstream IS(OS.str());
  ASSERT_TRUE(Loaded.load(IS));
  VariantId Id = VariantId::of(MapVariant::ChainedHashMap);
  EXPECT_FALSE(Loaded.cost(Id, OperationKind::Populate, CostDimension::Energy)
                   .coefficients()
                   .empty());
  EXPECT_TRUE(Loaded == Model);
}

TEST(EnergyRule, MatchesRallocShape) {
  SelectionRule Rule = SelectionRule::energyRule();
  EXPECT_EQ(Rule.Name, "Renergy");
  ASSERT_EQ(Rule.Criteria.size(), 2u);
  EXPECT_EQ(Rule.Criteria[0].Dimension, CostDimension::Energy);
  EXPECT_DOUBLE_EQ(Rule.Criteria[0].Threshold, 0.8);
  EXPECT_EQ(Rule.Criteria[1].Dimension, CostDimension::Time);
  EXPECT_EQ(Rule.primaryDimension(), CostDimension::Energy);
}

} // namespace

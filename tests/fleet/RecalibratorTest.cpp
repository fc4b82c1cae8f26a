//===- RecalibratorTest.cpp - On-device recalibration tests ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The promotion gate is exercised BOTH ways with injected measurements:
// a candidate that tracks the held-out slice at least as well as the
// incumbent is promoted and installed; one that regresses past the
// epsilon is rejected and never written to disk.
//
//===----------------------------------------------------------------------===//

#include "fleet/Recalibrator.h"

#include "model/DefaultModel.h"
#include "replay/TraceFormat.h"
#include "support/Telemetry.h"
#include "support/Topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

using namespace cswitch;
using namespace cswitch::fleet;

namespace {

/// A synthetic list-only corpus: eight instances at one site, all in the
/// same log2-size bucket. With HoldoutModulus = 4 instances 0 and 4 form
/// the held-out slice; the other six are the fit slice.
OpTrace sampleTrace(std::vector<uint32_t> InstanceIds = {0, 1, 2, 3, 4, 5,
                                                         6, 7}) {
  OpTrace Trace;
  Trace.Sites.push_back({"bench/Sample.cpp:1", AbstractionKind::List, 0});
  uint64_t Time = 0;
  for (uint32_t Instance : InstanceIds) {
    Trace.Ops.push_back({0, Instance, TraceOpKind::InstanceBegin,
                         OpClass::None, 0, ++Time});
    for (uint32_t Size = 1; Size <= 8; ++Size)
      Trace.Ops.push_back({0, Instance, TraceOpKind::Populate, OpClass::Back,
                           Size, ++Time});
    for (int I = 0; I != 4; ++I)
      Trace.Ops.push_back({0, Instance, TraceOpKind::Contains, OpClass::Hit,
                           8, ++Time});
    Trace.Ops.push_back({0, Instance, TraceOpKind::InstanceEnd, OpClass::None,
                         8, ++Time});
  }
  Trace.InstancesSampled = InstanceIds.size();
  return Trace;
}

bool isHoldoutSlice(const OpTrace &Slice, uint64_t Modulus = 4) {
  return !Slice.Ops.empty() && Slice.Ops.front().Instance % Modulus == 0;
}

/// Measurements far above any incumbent prediction: the fit clamps the
/// correction at MaxAlpha (64x), which still tracks the held-out slice
/// strictly better than the unscaled incumbent — the gate promotes.
RecalibrationOptions promoteOptions() {
  RecalibrationOptions Options;
  Options.Measure = [](AbstractionKind, unsigned, const OpTrace &) {
    return CellMeasurement{1'000'000'000'000ull, 1'000'000'000ull};
  };
  return Options;
}

/// Fit cells see huge costs (driving the 64x rescale) while the held-out
/// cells measure tiny ones: the rescaled candidate overshoots the
/// held-out slice 64x worse than the incumbent — the gate rejects.
RecalibrationOptions rejectOptions() {
  RecalibrationOptions Options;
  Options.Measure = [](AbstractionKind, unsigned, const OpTrace &Slice) {
    if (isHoldoutSlice(Slice))
      return CellMeasurement{1, 1};
    return CellMeasurement{1'000'000'000'000ull, 1'000'000'000ull};
  };
  return Options;
}

std::shared_ptr<const PerformanceModel> incumbent() {
  return std::make_shared<PerformanceModel>(defaultPerformanceModel());
}

TEST(Recalibrator, CellsCoverEverySequentialVariantOfBothSlices) {
  Recalibrator Work(sampleTrace(), incumbent(), promoteOptions());
  // One (fit, holdout) group pair, one cell per sequential list variant.
  EXPECT_EQ(Work.cellCount(),
            2 * firstConcurrentVariant(AbstractionKind::List));
  EXPECT_EQ(Work.cellsMeasured(), 0u);
  EXPECT_FALSE(Work.measured());
}

TEST(Recalibrator, StepMeasuresOneCellAtATime) {
  Recalibrator Work(sampleTrace(), incumbent(), promoteOptions());
  size_t Steps = 0;
  while (Work.step()) {
    ++Steps;
    EXPECT_EQ(Work.cellsMeasured(), Steps);
  }
  EXPECT_EQ(Steps, Work.cellCount());
  EXPECT_TRUE(Work.measured());
  EXPECT_FALSE(Work.step());
}

TEST(Recalibrator, PromotesWhenCandidateTracksHoldoutBetter) {
  auto Model = incumbent();
  Recalibrator Work(sampleTrace(), Model, promoteOptions());
  RecalibrationResult Result = Work.run(/*FitTimestamp=*/1754006400);

  EXPECT_TRUE(Result.Promoted) << Result.Reason;
  EXPECT_TRUE(Result.Reason.empty());
  EXPECT_LE(Result.CandidateResidual, Result.IncumbentResidual);
  EXPECT_GT(Result.VariantsRecalibrated, 0u);
  EXPECT_EQ(Result.CellsMeasured, Work.cellCount());

  // Provenance for the installed model's comment lines.
  EXPECT_EQ(Result.HostFingerprint, hostFingerprint());
  EXPECT_EQ(Result.FitTimestamp, 1754006400u);

  // The fitted sequential Time/Alloc rows were rescaled by the clamped
  // alpha (the injected measurements dwarf any prediction, so the
  // correction saturates at exactly 64x); every other stored row is
  // carried over verbatim.
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    auto Kind = static_cast<AbstractionKind>(A);
    for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
      for (OperationKind Op : AllOperationKinds)
        for (CostDimension Dim : StoredCostDimensions) {
          VariantId Id{Kind, V};
          const Polynomial &Before = Model->cost(Id, Op, Dim);
          bool Fitted = Kind == AbstractionKind::List &&
                        !isConcurrentVariant(Kind, V) &&
                        (Dim == CostDimension::Time ||
                         Dim == CostDimension::Alloc);
          EXPECT_EQ(Result.Candidate.cost(Id, Op, Dim),
                    Fitted ? Before.scaled(64.0) : Before)
              << Id.name() << " " << operationKindName(Op) << " "
              << costDimensionName(Dim);
        }
  }
}

TEST(Recalibrator, CandidateEnergyFollowsRescaledTime) {
  auto Model = incumbent();
  RecalibrationResult Result =
      Recalibrator(sampleTrace(), Model, promoteOptions()).run(1);
  ASSERT_TRUE(Result.Promoted) << Result.Reason;
  const PerformanceModel &Candidate = Result.Candidate;
  VariantId Fitted = VariantId::of(ListVariant::ArrayList);
  for (OperationKind Op : AllOperationKinds) {
    const Polynomial &Time = Candidate.cost(Fitted, Op, CostDimension::Time);
    if (Time.coefficients().empty())
      continue;
    EXPECT_EQ(Candidate.cost(Fitted, Op, CostDimension::Energy),
              Time.scaled(NanojoulesPerNanosecond) +
                  Candidate.cost(Fitted, Op, CostDimension::Alloc)
                      .scaled(NanojoulesPerByte))
        << operationKindName(Op);
    // The incumbent's energy was derived from the unscaled rows.
    EXPECT_NE(Candidate.cost(Fitted, Op, CostDimension::Energy),
              Model->cost(Fitted, Op, CostDimension::Energy))
        << operationKindName(Op);
  }
}

TEST(Recalibrator, RtimeAndRenergyRankingsMoveWithTheDerivedEnergy) {
  // Each sequential list variant gets its own correction per dimension:
  // huge measurements clamp alpha at 64, tiny ones at 1/64.
  struct Alphas {
    double Time, Alloc;
  };
  const Alphas Fit[] = {{64, 1.0 / 64},       // ArrayList
                        {1.0 / 64, 64},       // LinkedList
                        {64, 64},             // HashArrayList
                        {1.0 / 64, 1.0 / 64}}; // AdaptiveList
  ASSERT_EQ(std::size(Fit), firstConcurrentVariant(AbstractionKind::List));
  RecalibrationOptions Options;
  Options.Measure = [&](AbstractionKind, unsigned V, const OpTrace &) {
    return CellMeasurement{Fit[V].Time > 1 ? 1'000'000'000'000ull : 1,
                           Fit[V].Alloc > 1 ? 1'000'000'000ull : 1};
  };
  auto Incumbent = incumbent();
  const PerformanceModel Candidate =
      Recalibrator(sampleTrace(), Incumbent, Options).run(1).Candidate;

  // A fixed profile set: the op mixes and sizes Table 1's rules see.
  auto Profile = [](std::initializer_list<std::pair<OperationKind, uint64_t>>
                        Ops,
                    uint64_t Size) {
    WorkloadProfile W;
    for (auto [Op, N] : Ops)
      W.record(Op, N);
    W.recordSize(Size);
    return W;
  };
  using OK = OperationKind;
  const WorkloadProfile Profiles[] = {
      Profile({{OK::Populate, 1000}}, 10),
      Profile({{OK::Populate, 100}, {OK::Contains, 1000}}, 500),
      Profile({{OK::Populate, 200}, {OK::Iterate, 50}}, 200),
      Profile({{OK::Populate, 50}, {OK::IndexAccess, 400}, {OK::Middle, 40}},
              1000),
      Profile({{OK::Populate, 300}, {OK::Remove, 300}}, 64)};

  const unsigned Sequential = firstConcurrentVariant(AbstractionKind::List);
  auto Ranking = [&](const PerformanceModel &Model, const WorkloadProfile &W,
                     CostDimension Dim) {
    std::vector<unsigned> Order(Sequential);
    for (unsigned V = 0; V != Sequential; ++V)
      Order[V] = V;
    std::stable_sort(Order.begin(), Order.end(), [&](unsigned L, unsigned R) {
      return Model.totalCost({AbstractionKind::List, L}, W, Dim) <
             Model.totalCost({AbstractionKind::List, R}, W, Dim);
    });
    return Order;
  };

  size_t RtimeMoves = 0, RenergyMoves = 0;
  for (const WorkloadProfile &W : Profiles) {
    std::vector<double> Derived(Sequential);
    for (unsigned V = 0; V != Sequential; ++V) {
      VariantId Id{AbstractionKind::List, V};
      double Time = Incumbent->totalCost(Id, W, CostDimension::Time);
      double Alloc = Incumbent->totalCost(Id, W, CostDimension::Alloc);
      // The rescaled cost of every dimension, and the energy derived
      // from the rescaled time and alloc (the default rows are
      // non-negative, so no clamp separates the totals).
      double NewTime = Fit[V].Time * Time, NewAlloc = Fit[V].Alloc * Alloc;
      Derived[V] = NanojoulesPerNanosecond * NewTime +
                   NanojoulesPerByte * NewAlloc;
      EXPECT_NEAR(Candidate.totalCost(Id, W, CostDimension::Time), NewTime,
                  1e-9 * NewTime);
      EXPECT_NEAR(Candidate.totalCost(Id, W, CostDimension::Alloc), NewAlloc,
                  1e-9 * NewAlloc + 1e-12);
      EXPECT_NEAR(Candidate.totalCost(Id, W, CostDimension::Energy),
                  Derived[V], 1e-9 * Derived[V])
          << Id.name();
    }
    // Renergy ranks by exactly the derived energy.
    std::vector<unsigned> Renergy =
        Ranking(Candidate, W, CostDimension::Energy);
    for (size_t I = 1; I != Renergy.size(); ++I)
      EXPECT_LE(Derived[Renergy[I - 1]], Derived[Renergy[I]]);
    RtimeMoves += Ranking(Candidate, W, CostDimension::Time) !=
                  Ranking(*Incumbent, W, CostDimension::Time);
    RenergyMoves += Renergy != Ranking(*Incumbent, W, CostDimension::Energy);
  }
  // The corrections reorder both rankings somewhere: an energy row
  // carried over from the incumbent would have kept Renergy's order.
  EXPECT_GT(RtimeMoves, 0u);
  EXPECT_GT(RenergyMoves, 0u);
}

TEST(Recalibrator, RejectsWhenCandidateRegressesOnHoldout) {
  Recalibrator Work(sampleTrace(), incumbent(), rejectOptions());
  RecalibrationResult Result = Work.run(/*FitTimestamp=*/1754006400);

  EXPECT_FALSE(Result.Promoted);
  EXPECT_NE(Result.Reason.find("regressed"), std::string::npos)
      << Result.Reason;
  EXPECT_GT(Result.CandidateResidual,
            Result.IncumbentResidual + RecalibrationOptions().PromotionEpsilon);
  // The rejected fit stays inspectable.
  VariantId Fitted = VariantId::of(ListVariant::ArrayList);
  EXPECT_EQ(Result.Candidate.cost(Fitted, OperationKind::Populate,
                                  CostDimension::Time),
            incumbent()
                ->cost(Fitted, OperationKind::Populate, CostDimension::Time)
                .scaled(64.0));
  EXPECT_GT(Result.VariantsRecalibrated, 0u);
}

TEST(Recalibrator, RejectsWithoutHoldoutCells) {
  // Only odd instance ids with modulus 2: every instance lands in the
  // fit slice, so there is nothing to validate against — never promote.
  Recalibrator Work(sampleTrace({1, 3, 5, 7}), incumbent(),
                    promoteOptions().holdoutModulus(2));
  RecalibrationResult Result = Work.run(/*FitTimestamp=*/1);
  EXPECT_FALSE(Result.Promoted);
  EXPECT_NE(Result.Reason.find("held-out"), std::string::npos)
      << Result.Reason;
}

TEST(Recalibrator, DropsCellsBelowMinOps) {
  // 14 ops per instance and a threshold above the whole corpus: no
  // cells at all, and the empty fit is rejected.
  Recalibrator Work(sampleTrace({1}), incumbent(),
                    promoteOptions().minCellOps(1'000'000));
  EXPECT_EQ(Work.cellCount(), 0u);
  RecalibrationResult Result = Work.run(/*FitTimestamp=*/1);
  EXPECT_FALSE(Result.Promoted);
  EXPECT_NE(Result.Reason.find("enough fit measurements"),
            std::string::npos);
}

TEST(Recalibrator, FromTraceFileInstallsOnlyOnPromotion) {
  const char *TracePath = "recalibrator_test_trace.bin";
  const char *ModelPath = "recalibrator_test.model";
  ASSERT_TRUE(writeTraceToFile(TracePath, sampleTrace()));
  std::remove(ModelPath);

  FleetStats Before = FleetRegistry::global().stats();

  // Rejected fit: counters tick, nothing installed.
  std::string Error;
  RecalibrationResult Rejected = recalibrateFromTraceFile(
      TracePath, incumbent(), ModelPath, rejectOptions(), &Error);
  EXPECT_FALSE(Rejected.Promoted);
  PerformanceModel OnDisk;
  EXPECT_FALSE(OnDisk.loadFromFile(ModelPath));

  // Promoted fit: the candidate lands atomically at the requested path.
  RecalibrationResult Promoted = recalibrateFromTraceFile(
      TracePath, incumbent(), ModelPath, promoteOptions(), &Error);
  EXPECT_TRUE(Promoted.Promoted) << Promoted.Reason << " " << Error;
  ASSERT_TRUE(OnDisk.loadFromFile(ModelPath, &Error)) << Error;
  EXPECT_TRUE(OnDisk == Promoted.Candidate);

  FleetStats Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.Recalibrations, 2u);
  EXPECT_EQ(Delta.Promotions, 1u);
  EXPECT_EQ(Delta.PromotionsRejected, 1u);

  std::remove(TracePath);
  std::remove(ModelPath);
}

TEST(Recalibrator, PromotedModelLoadsWithTheTextLoader) {
  const char *TracePath = "recalibrator_text_trace.bin";
  const char *ModelPath = "recalibrator_text.model";
  ASSERT_TRUE(writeTraceToFile(TracePath, sampleTrace()));
  std::string Error;
  RecalibrationResult Result = recalibrateFromTraceFile(
      TracePath, incumbent(), ModelPath, promoteOptions(), &Error);
  ASSERT_TRUE(Result.Promoted) << Result.Reason << " " << Error;

  PerformanceModel Loaded;
  ASSERT_TRUE(Loaded.loadFromFile(ModelPath, &Error)) << Error;
  for (size_t A = 0; A != NumAbstractionKinds; ++A) {
    auto Kind = static_cast<AbstractionKind>(A);
    for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
      EXPECT_TRUE(Loaded.hasVariant({Kind, V})) << VariantId{Kind, V}.name();
  }

  // The provenance rides in comment lines right after the header.
  std::ifstream IS(ModelPath);
  std::string Header, Host, Fit, Residual;
  std::getline(IS, Header);
  std::getline(IS, Host);
  std::getline(IS, Fit);
  std::getline(IS, Residual);
  EXPECT_EQ(Header, "cswitch-performance-model v1");
  EXPECT_EQ(Host, "# host " + hostFingerprint());
  EXPECT_EQ(Fit, "# fit_timestamp " + std::to_string(Result.FitTimestamp));
  EXPECT_EQ(Residual.rfind("# holdout_residual ", 0), 0u) << Residual;

  std::remove(TracePath);
  std::remove(ModelPath);
}

TEST(Recalibrator, FromTraceFileFailsOnMissingTrace) {
  std::string Error;
  RecalibrationResult Result = recalibrateFromTraceFile(
      "no_such_trace.bin", incumbent(), "unused_model.bin",
      promoteOptions(), &Error);
  EXPECT_FALSE(Result.Promoted);
  EXPECT_EQ(Result.Reason, "cannot read trace");
  EXPECT_FALSE(Error.empty());
}

TEST(BackgroundRecalibrator, SpreadsWorkAcrossTicksThenInstalls) {
  const char *ModelPath = "background_recalibrator.model";
  std::remove(ModelPath);
  BackgroundRecalibrator Background(sampleTrace(), incumbent(), ModelPath,
                                    promoteOptions());

  size_t InnerCalls = 0;
  auto Sink = Background.sink(
      [&InnerCalls](const TelemetrySnapshot &) { ++InnerCalls; });

  Recalibrator Reference(sampleTrace(), incumbent(), promoteOptions());
  size_t CellTicks = Reference.cellCount();
  TelemetrySnapshot Snapshot;
  // One cell per tick, one extra tick for fit + install.
  for (size_t I = 0; I != CellTicks; ++I) {
    EXPECT_FALSE(Background.finished());
    Sink(Snapshot);
  }
  EXPECT_FALSE(Background.finished());
  Sink(Snapshot);
  ASSERT_TRUE(Background.finished());
  EXPECT_EQ(InnerCalls, CellTicks + 1);

  ASSERT_TRUE(Background.result().has_value());
  EXPECT_TRUE(Background.result()->Promoted)
      << Background.result()->Reason;
  PerformanceModel OnDisk;
  std::string Error;
  ASSERT_TRUE(OnDisk.loadFromFile(ModelPath, &Error)) << Error;
  EXPECT_TRUE(OnDisk == Background.result()->Candidate);

  // Further ticks are no-ops once finished.
  Sink(Snapshot);
  EXPECT_EQ(InnerCalls, CellTicks + 2);
  std::remove(ModelPath);
}

} // namespace

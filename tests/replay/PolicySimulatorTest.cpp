//===- PolicySimulatorTest.cpp - What-if policy sweep tests ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Tests of the offline what-if simulator: the default policy sweep, the
// deterministic replay outcomes behind the ranking, global adaptive
// threshold save/restore, and corpus handling (trace-index prefixes).
//
//===----------------------------------------------------------------------===//

#include "core/AllocationContext.h"
#include "model/DefaultModel.h"
#include "replay/PolicySimulator.h"
#include "replay/TraceRecorder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> testModel() {
  static std::shared_ptr<const PerformanceModel> Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

/// A small recorded list workload the sweeps replay.
OpTrace smallTrace(size_t Instances) {
  TraceRecorder Rec;
  ContextOptions Options;
  Options.LogEvents = false;
  Options.Recorder = &Rec;
  ListContext<int64_t> Ctx("sim-test:list", ListVariant::LinkedList,
                           testModel(), SelectionRule::timeRule(), Options);
  for (size_t I = 0; I != Instances; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t Op = 0; Op != 12; ++Op)
      L.add(Op);
    for (int64_t Op = 0; Op != 12; ++Op)
      (void)L.get(static_cast<size_t>(Op));
    (void)L.contains(-1);
  }
  return Rec.trace();
}

PolicyCandidate quietPolicy(std::string Name, SelectionRule Rule) {
  PolicyCandidate P;
  P.Name = std::move(Name);
  P.Rule = std::move(Rule);
  P.Context.WindowSize = 10;
  P.Context.FinishedRatio = 0.5;
  P.Context.LogEvents = false;
  P.EvalEveryOps = 64;
  return P;
}

TEST(PolicySimulator, DefaultSweepCoversTheStandardPolicies) {
  PolicySimulator Sim(testModel());
  Sim.addDefaultPolicies();
  EXPECT_EQ(Sim.policyCount(), 9u);
}

TEST(PolicySimulator, RanksPoliciesAndReportsOutcomes) {
  PolicySimulator Sim(testModel());
  Sim.addTrace(smallTrace(30));
  Sim.addPolicy(quietPolicy("Rtime", SelectionRule::timeRule()));
  Sim.addPolicy(quietPolicy("static", SelectionRule::impossibleRule()));
  SimulationReport Report = Sim.run();

  ASSERT_EQ(Report.Ranked.size(), 2u);
  EXPECT_FALSE(Report.Best.empty());
  EXPECT_EQ(Report.Best, Report.Ranked.front().Name);
  // Ranked by measured elapsed time, best first.
  EXPECT_LE(Report.Ranked[0].ElapsedNanos, Report.Ranked[1].ElapsedNanos);

  auto Static = std::find_if(
      Report.Ranked.begin(), Report.Ranked.end(),
      [](const PolicyOutcome &O) { return O.Name == "static"; });
  ASSERT_NE(Static, Report.Ranked.end());
  EXPECT_EQ(Static->Switches, 0u); // impossibleRule never switches.
  for (const PolicyOutcome &Outcome : Report.Ranked) {
    EXPECT_GT(Outcome.OpsExecuted, 0u);
    EXPECT_GT(Outcome.InstancesReplayed, 0u);
    EXPECT_GT(Outcome.Evaluations, 0u);
    EXPECT_EQ(Outcome.SizeMismatches, 0u);
    EXPECT_GT(Outcome.PredictedTime, 0.0);
    EXPECT_GT(Outcome.PredictedAlloc, 0.0);
    ASSERT_EQ(Outcome.FinalVariants.size(), 1u);
    EXPECT_EQ(Outcome.FinalVariants[0].first, "sim-test:list");
  }
}

TEST(PolicySimulator, DecisionsAreDeterministicAcrossRuns) {
  PolicySimulator Sim(testModel());
  Sim.addTrace(smallTrace(30));
  Sim.addPolicy(quietPolicy("Rtime", SelectionRule::timeRule()));
  Sim.addPolicy(quietPolicy("Ralloc", SelectionRule::allocRule()));
  SimulationReport First = Sim.run(123);
  SimulationReport Second = Sim.run(123);

  // Wall-clock (and thus ranking order) may vary between runs; the
  // decisions behind it must not.
  for (const PolicyOutcome &A : First.Ranked) {
    auto B = std::find_if(
        Second.Ranked.begin(), Second.Ranked.end(),
        [&A](const PolicyOutcome &O) { return O.Name == A.Name; });
    ASSERT_NE(B, Second.Ranked.end());
    EXPECT_EQ(A.OpsExecuted, B->OpsExecuted);
    EXPECT_EQ(A.Evaluations, B->Evaluations);
    EXPECT_EQ(A.Switches, B->Switches);
    EXPECT_EQ(A.FinalVariants, B->FinalVariants);
    EXPECT_DOUBLE_EQ(A.PredictedTime, B->PredictedTime);
  }
}

TEST(PolicySimulator, RestoresGlobalAdaptiveThresholds) {
  AdaptiveThresholds Before = AdaptiveConfig::global().thresholds();
  PolicySimulator Sim(testModel());
  Sim.addTrace(smallTrace(10));
  PolicyCandidate Adaptive = quietPolicy("adapt", SelectionRule::timeRule());
  Adaptive.Context.AdaptiveOverride = AdaptiveThresholds{7, 7, 7};
  Sim.addPolicy(Adaptive);
  (void)Sim.run();
  AdaptiveThresholds After = AdaptiveConfig::global().thresholds();
  EXPECT_EQ(After.List, Before.List);
  EXPECT_EQ(After.Set, Before.Set);
  EXPECT_EQ(After.Map, Before.Map);
}

TEST(PolicySimulator, MultiTraceCorpusPrefixesSiteNames) {
  PolicySimulator Sim(testModel());
  Sim.addTrace(smallTrace(8));
  Sim.addTrace(smallTrace(8));
  EXPECT_EQ(Sim.traceCount(), 2u);
  Sim.addPolicy(quietPolicy("Rtime", SelectionRule::timeRule()));
  SimulationReport Report = Sim.run();
  ASSERT_EQ(Report.Ranked.size(), 1u);
  ASSERT_EQ(Report.Ranked[0].FinalVariants.size(), 2u);
  EXPECT_EQ(Report.Ranked[0].FinalVariants[0].first, "t0:sim-test:list");
  EXPECT_EQ(Report.Ranked[0].FinalVariants[1].first, "t1:sim-test:list");
}

TEST(PolicySimulator, RenderNamesEveryPolicyAndTheWinner) {
  PolicySimulator Sim(testModel());
  Sim.addTrace(smallTrace(10));
  Sim.addPolicy(quietPolicy("policy-one", SelectionRule::timeRule()));
  Sim.addPolicy(quietPolicy("policy-two", SelectionRule::allocRule()));
  SimulationReport Report = Sim.run();
  std::string Text = Report.render();
  EXPECT_NE(Text.find("policy-one"), std::string::npos);
  EXPECT_NE(Text.find("policy-two"), std::string::npos);
  EXPECT_NE(Text.find("best:"), std::string::npos);
  EXPECT_NE(Text.find(Report.Best), std::string::npos);
}

TEST(PolicySimulator, EmptyCorpusProducesEmptyOutcomes) {
  PolicySimulator Sim(testModel());
  Sim.addPolicy(quietPolicy("Rtime", SelectionRule::timeRule()));
  SimulationReport Report = Sim.run();
  ASSERT_EQ(Report.Ranked.size(), 1u);
  EXPECT_EQ(Report.Ranked[0].OpsExecuted, 0u);
  EXPECT_TRUE(Report.Ranked[0].FinalVariants.empty());
}

} // namespace

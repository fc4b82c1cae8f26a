//===- SwitchEngineTest.cpp - Engine and top-level API tests ------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/Switch.h"
#include "model/DefaultModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

ContextOptions quietOptions(size_t Window = 10) {
  ContextOptions Options;
  Options.WindowSize = Window;
  Options.FinishedRatio = 0.6;
  Options.LogEvents = false;
  return Options;
}

void lookupHeavyWorkload(ListContext<int64_t> &Ctx, int Instances) {
  for (int I = 0; I != Instances; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t V = 0; V != 400; ++V)
      L.add(V);
    for (int64_t V = 0; V != 2000; ++V)
      (void)L.contains(V);
  }
}

TEST(SwitchEngine, RegisterEvaluateUnregister) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:reg", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  Engine.registerContext(&Ctx);
  EXPECT_EQ(Engine.contextCount(), 1u);
  lookupHeavyWorkload(Ctx, 10);
  EXPECT_EQ(Engine.evaluateAll(), 1u);
  EXPECT_EQ(Engine.totalSwitches(), 1u);
  Engine.unregisterContext(&Ctx);
  EXPECT_EQ(Engine.contextCount(), 0u);
  EXPECT_EQ(Engine.totalSwitches(), 0u);
}

TEST(SwitchEngine, EvaluateAllCountsTransitionsAcrossContexts) {
  SwitchEngine Engine;
  ListContext<int64_t> A("e:a", ListVariant::ArrayList, defaultModel(),
                         SelectionRule::timeRule(), quietOptions());
  ListContext<int64_t> B("e:b", ListVariant::ArrayList, defaultModel(),
                         SelectionRule::timeRule(), quietOptions());
  Engine.registerContext(&A);
  Engine.registerContext(&B);
  lookupHeavyWorkload(A, 10);
  // B gets no workload: evaluates to nothing.
  EXPECT_EQ(Engine.evaluateAll(), 1u);
  Engine.unregisterContext(&A);
  Engine.unregisterContext(&B);
}

TEST(SwitchEngine, UnregisterUnknownContextIsNoop) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:unknown", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  Engine.unregisterContext(&Ctx); // never registered.
  EXPECT_EQ(Engine.contextCount(), 0u);
}

TEST(SwitchEngine, BackgroundThreadEvaluatesPeriodically) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:bg", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  Engine.registerContext(&Ctx);
  lookupHeavyWorkload(Ctx, 10);
  Engine.start(std::chrono::milliseconds(5));
  EXPECT_TRUE(Engine.isRunning());
  // The paper's monitoring-rate task should pick the transition up.
  for (int Spin = 0; Spin != 200 && Ctx.switchCount() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Engine.stop();
  EXPECT_FALSE(Engine.isRunning());
  EXPECT_EQ(Ctx.switchCount(), 1u);
  Engine.unregisterContext(&Ctx);
}

TEST(SwitchEngine, StartTwiceAndStopTwiceAreSafe) {
  SwitchEngine Engine;
  Engine.start(std::chrono::milliseconds(10));
  Engine.start(std::chrono::milliseconds(10));
  EXPECT_TRUE(Engine.isRunning());
  Engine.stop();
  Engine.stop();
  EXPECT_FALSE(Engine.isRunning());
}

TEST(SwitchEngine, ConcurrentCreationWhileEvaluating) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:conc", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(50));
  Engine.registerContext(&Ctx);
  Engine.start(std::chrono::milliseconds(1));
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&Ctx, &Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        List<int64_t> L = Ctx.createList();
        for (int64_t V = 0; V != 64; ++V)
          L.add(V);
        for (int64_t V = 0; V != 128; ++V)
          (void)L.contains(V);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  Engine.stop();
  Engine.unregisterContext(&Ctx);
  EXPECT_GT(Ctx.instancesCreated(), 100u);
  EXPECT_GT(Ctx.evaluationCount(), 0u);
}

TEST(SwitchEngine, RegistryIsPerEngineAndOrdered) {
  // One context registered with two engines (the replayer builds
  // private engines, so this happens): unregistering it from one must
  // leave the other still holding and evaluating it.
  SwitchEngine First, Second;
  ListContext<int64_t> Shared("e:shared", ListVariant::ArrayList,
                              defaultModel(), SelectionRule::timeRule(),
                              quietOptions());
  First.registerContext(&Shared);
  Second.registerContext(&Shared);
  First.unregisterContext(&Shared);
  EXPECT_EQ(First.contextCount(), 0u);
  ASSERT_EQ(Second.contextCount(), 1u);
  lookupHeavyWorkload(Shared, 10);
  EXPECT_EQ(First.evaluateAll(), 0u);
  EXPECT_EQ(Second.evaluateAll(), 1u);
  EXPECT_EQ(Shared.switchCount(), 1u);
  Second.unregisterContext(&Shared);
  EXPECT_EQ(Second.contextCount(), 0u);

  // evaluateAll() and telemetry() visit contexts in registration order,
  // which is neither name nor address order here; unregistering one
  // keeps the others' order.
  SwitchEngine Engine;
  ContextOptions Logged = quietOptions(1);
  Logged.LogEvents = true;
  std::vector<std::unique_ptr<ListContext<int64_t>>> Contexts;
  for (int C = 0; C != 5; ++C)
    Contexts.push_back(std::make_unique<ListContext<int64_t>>(
        "e:order:" + std::to_string(C), ListVariant::ArrayList,
        defaultModel(), SelectionRule::timeRule(), Logged));
  for (int C : {3, 0, 4, 1, 2})
    Engine.registerContext(Contexts[C].get());
  Engine.unregisterContext(Contexts[4].get());
  const std::vector<std::string> Expected = {"e:order:3", "e:order:0",
                                             "e:order:1", "e:order:2"};

  std::vector<std::string> Reported;
  for (const ContextSnapshot &C : Engine.telemetry().Contexts)
    Reported.push_back(C.Name);
  EXPECT_EQ(Reported, Expected);

  for (auto &Ctx : Contexts) {
    List<int64_t> L = Ctx->createList(); // fills the one-slot window
    L.add(1);
  }
  // The global log's Evaluation events of these sites, in ticket order.
  auto Evaluations = [] {
    std::vector<std::string> Names;
    for (const Event &E :
         EventLog::global().snapshotOfKind(EventKind::Evaluation))
      if (E.Context.rfind("e:order:", 0) == 0)
        Names.push_back(E.Context);
    return Names;
  };
  size_t Before = Evaluations().size();
  Engine.evaluateAll();
  std::vector<std::string> Evaluated = Evaluations();
  Evaluated.erase(Evaluated.begin(),
                  Evaluated.begin() +
                      static_cast<std::ptrdiff_t>(
                          std::min(Before, Evaluated.size())));
  EXPECT_EQ(Evaluated, Expected);
  for (int C : {3, 0, 1, 2})
    Engine.unregisterContext(Contexts[C].get());
}

TEST(SwitchApi, GlobalModelIsSharedAndReplaceable) {
  std::shared_ptr<const PerformanceModel> Before = Switch::model();
  ASSERT_NE(Before, nullptr);
  auto Custom = std::make_shared<const PerformanceModel>();
  Switch::setModel(Custom);
  EXPECT_EQ(Switch::model(), Custom);
  Switch::setModel(Before);
}

TEST(SwitchApi, ContextHandlesAutoUnregister) {
  size_t Before = SwitchEngine::global().contextCount();
  {
    auto Ctx = Switch::makeContext<Set<int64_t>>(
        "api:set", SetVariant::ChainedHashSet);
    EXPECT_EQ(SwitchEngine::global().contextCount(), Before + 1);
    Set<int64_t> S = Ctx->createSet();
    S.add(1);
  }
  EXPECT_EQ(SwitchEngine::global().contextCount(), Before);
}

} // namespace

//===- SwitchApiTest.cpp - Generic factory and observability API tests ----===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Tests of the unified public API: the generic Switch::makeContext<>
// factory (the sole construction path), the Switch::configure process
// defaults, the fluent ContextOptions builder, and the observability
// surface (telemetry snapshots matching engine stats exactly, JSON
// round-trip, drainEvents, the periodic reporter).
//
//===----------------------------------------------------------------------===//

#include "core/Switch.h"
#include "model/DefaultModel.h"
#include "support/MetricsExport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
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

/// Extracts the first `"Key": <number>` occurrence — sufficient for the
/// engine object, which serializes before the per-context array.
uint64_t firstJsonField(const std::string &Json, const std::string &Key) {
  std::string Needle = "\"" + Key + "\": ";
  size_t Pos = Json.find(Needle);
  EXPECT_NE(Pos, std::string::npos) << Key;
  if (Pos == std::string::npos)
    return ~0ull;
  return std::strtoull(Json.c_str() + Pos + Needle.size(), nullptr, 10);
}

TEST(SwitchApi, MakeContextCoversEveryAbstraction) {
  size_t Before = SwitchEngine::global().contextCount();
  {
    auto L = Switch::makeContext<List<int64_t>>("api:mk-list",
                                                ListVariant::ArrayList);
    auto S = Switch::makeContext<Set<int64_t>>("api:mk-set",
                                               SetVariant::ChainedHashSet);
    auto M = Switch::makeContext<Map<int64_t, int64_t>>(
        "api:mk-map", MapVariant::ChainedHashMap);
    EXPECT_EQ(SwitchEngine::global().contextCount(), Before + 3);
    List<int64_t> AList = L->createList();
    AList.add(1);
    Set<int64_t> ASet = S->createSet();
    ASet.add(2);
    Map<int64_t, int64_t> AMap = M->createMap();
    AMap.put(3, 4);
    EXPECT_EQ(L->name(), "api:mk-list");
    EXPECT_EQ(L->instancesCreated(), 1u);
  }
  EXPECT_EQ(SwitchEngine::global().contextCount(), Before);
}

TEST(SwitchApi, ContextTypeSpellingAlsoResolves) {
  // makeContext<ListContext<T>> is the same factory as
  // makeContext<List<T>> — context types name themselves.
  auto Ctx = Switch::makeContext<ListContext<int64_t>>(
      "api:mk-ctx-type", ListVariant::LinkedList);
  EXPECT_EQ(Ctx->currentVariant().name(), std::string("LinkedList"));
}

TEST(SwitchApi, ConfigureInstallsContextDefaults) {
  ContextOptions Before = Switch::defaultContextOptions();
  SwitchConfig Config;
  Config.Context =
      ContextOptions{}.windowSize(25).logEvents(false).concurrency(
          Concurrency::Auto);
  Switch::configure(Config);
  // A context created without explicit options picks the defaults up...
  auto Defaulted = Switch::makeContext<Map<int64_t, int64_t>>(
      "api:configured", MapVariant::ChainedHashMap);
  EXPECT_EQ(Defaulted->options().WindowSize, 25u);
  EXPECT_FALSE(Defaulted->options().LogEvents);
  EXPECT_EQ(Defaulted->concurrencyMode(), Concurrency::Auto);
  // ...while an explicit ContextOptions still wins.
  auto Explicit = Switch::makeContext<Map<int64_t, int64_t>>(
      "api:explicit", MapVariant::ChainedHashMap,
      SelectionRule::timeRule(), ContextOptions{}.windowSize(75));
  EXPECT_EQ(Explicit->options().WindowSize, 75u);
  EXPECT_EQ(Explicit->concurrencyMode(), Concurrency::None);
  Switch::configure(
      SwitchConfig{EngineOptions{}, Before, FleetOptions{}, std::string()});
}

TEST(SwitchApi, FluentOptionsConfigureTheAggregate) {
  ContextOptions Options = ContextOptions{}
                               .windowSize(50)
                               .finishedRatio(0.5)
                               .logEvents(false)
                               .wideRangeFactor(8.0);
  EXPECT_EQ(Options.WindowSize, 50u);
  EXPECT_DOUBLE_EQ(Options.FinishedRatio, 0.5);
  EXPECT_FALSE(Options.LogEvents);
  EXPECT_DOUBLE_EQ(Options.WideRangeFactor, 8.0);

  auto Ctx = Switch::makeContext<List<int64_t>>(
      "api:fluent", ListVariant::ArrayList, SelectionRule::timeRule(),
      Options);
  EXPECT_EQ(Ctx->options().WindowSize, 50u);
  EXPECT_FALSE(Ctx->options().LogEvents);
}

TEST(SwitchApi, TelemetryMatchesEngineStatsExactly) {
  auto A = Switch::makeContext<List<int64_t>>(
      "api:tele-a", ListVariant::ArrayList, SelectionRule::timeRule(),
      ContextOptions{}.windowSize(10).logEvents(false));
  auto B = Switch::makeContext<Set<int64_t>>(
      "api:tele-b", SetVariant::ChainedHashSet, SelectionRule::timeRule(),
      ContextOptions{}.windowSize(10).logEvents(false));
  lookupHeavyWorkload(*A, 12);
  for (int I = 0; I != 5; ++I) {
    Set<int64_t> S = B->createSet();
    S.add(I);
  }
  SwitchEngine::global().evaluateAll();

  TelemetrySnapshot T = Switch::telemetry();
  EngineStats S = Switch::stats();
  EXPECT_TRUE(T.Engine == S);

  // The per-context rows sum to the aggregate of the same snapshot.
  EngineStats Sum;
  for (const ContextSnapshot &C : T.Contexts)
    Sum += C.Stats;
  EXPECT_TRUE(T.Engine == Sum);

  // Our contexts appear with their abstraction and live variant names.
  bool SawA = false, SawB = false;
  for (const ContextSnapshot &C : T.Contexts) {
    if (C.Name == "api:tele-a") {
      SawA = true;
      EXPECT_EQ(C.Abstraction, "list");
      EXPECT_FALSE(C.Variant.empty());
      EXPECT_EQ(C.Stats.InstancesCreated, 12u);
      EXPECT_GT(C.FootprintBytes, 0u);
    }
    if (C.Name == "api:tele-b") {
      SawB = true;
      EXPECT_EQ(C.Abstraction, "set");
      EXPECT_EQ(C.Stats.InstancesCreated, 5u);
    }
  }
  EXPECT_TRUE(SawA);
  EXPECT_TRUE(SawB);
  EXPECT_EQ(T.Events.Recorded, EventLog::global().totalRecorded());
}

TEST(SwitchApi, TelemetryJsonRoundTripsEngineStats) {
  auto Ctx = Switch::makeContext<List<int64_t>>(
      "api:json", ListVariant::ArrayList, SelectionRule::timeRule(),
      ContextOptions{}.windowSize(10).logEvents(false));
  lookupHeavyWorkload(*Ctx, 12);
  SwitchEngine::global().evaluateAll();

  TelemetrySnapshot T = Switch::telemetry();
  EngineStats S = Switch::stats();
  std::string Json = toJson(T);

  // The engine object serializes first, so first-occurrence extraction
  // reads exactly the aggregate the engine reported.
  EXPECT_EQ(firstJsonField(Json, "contexts"), S.Contexts);
  EXPECT_EQ(firstJsonField(Json, "instances_created"), S.InstancesCreated);
  EXPECT_EQ(firstJsonField(Json, "instances_monitored"),
            S.InstancesMonitored);
  EXPECT_EQ(firstJsonField(Json, "profiles_published"),
            S.ProfilesPublished);
  EXPECT_EQ(firstJsonField(Json, "profiles_discarded"),
            S.ProfilesDiscarded);
  EXPECT_EQ(firstJsonField(Json, "evaluations"), S.Evaluations);
  EXPECT_EQ(firstJsonField(Json, "switches"), S.Switches);
  EXPECT_EQ(firstJsonField(Json, "recorded"), T.Events.Recorded);
}

TEST(SwitchApi, DrainEventsHarvestsTransitions) {
  Switch::drainEvents(); // discard earlier activity
  auto Ctx = Switch::makeContext<List<int64_t>>(
      "api:drain", ListVariant::ArrayList, SelectionRule::timeRule(),
      ContextOptions{}.windowSize(10).logEvents(true));
  lookupHeavyWorkload(*Ctx, 12);
  SwitchEngine::global().evaluateAll();
  bool SawTransition = false;
  for (const Event &E : Switch::drainEvents())
    if (E.Kind == EventKind::Transition && E.Context == "api:drain") {
      SawTransition = true;
      EXPECT_NE(E.Detail.find(" -> "), std::string::npos);
    }
  EXPECT_TRUE(SawTransition);
  EXPECT_TRUE(Switch::drainEvents().empty()); // consumed
}

TEST(SwitchApi, ReporterEmitsPeriodically) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("api:reporter", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           ContextOptions{}.windowSize(10).logEvents(false));
  Engine.registerContext(&Ctx);
  std::atomic<uint64_t> SinkCalls{0};
  std::atomic<uint64_t> SeenContexts{0};
  ReporterOptions Options;
  Options.Interval = std::chrono::milliseconds(1);
  Options.Sink = [&SinkCalls, &SeenContexts](const TelemetrySnapshot &T) {
    SinkCalls.fetch_add(1);
    SeenContexts.store(T.Contexts.size());
  };
  Engine.setReporter(std::move(Options));
  EXPECT_EQ(Engine.reportsEmitted(), 0u);
  Engine.start(std::chrono::milliseconds(1));
  for (int Spin = 0; Spin != 500 && Engine.reportsEmitted() < 2; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Engine.stop();
  EXPECT_GE(Engine.reportsEmitted(), 2u);
  EXPECT_EQ(SinkCalls.load(), Engine.reportsEmitted());
  EXPECT_EQ(SeenContexts.load(), 1u);

  // After clearReporter no further reports flow.
  Engine.clearReporter();
  uint64_t Before = Engine.reportsEmitted();
  Engine.start(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Engine.stop();
  EXPECT_EQ(Engine.reportsEmitted(), Before);
  Engine.unregisterContext(&Ctx);
}

// TSan stress: telemetry snapshots raced against instance churn and the
// background evaluator — snapshots must stay internally consistent
// (aggregate == sum of rows) while everything moves underneath.
TEST(SwitchApi, ConcurrentTelemetryCaptureIsSafe) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("api:tele-stress", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           ContextOptions{}.windowSize(50).logEvents(false));
  Engine.registerContext(&Ctx);
  Engine.start(std::chrono::milliseconds(1));
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&Ctx, &Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        List<int64_t> L = Ctx.createList();
        for (int64_t V = 0; V != 32; ++V)
          L.add(V);
        (void)L.contains(7);
      }
    });
  for (int I = 0; I != 50; ++I) {
    TelemetrySnapshot T = Engine.telemetry();
    EngineStats Sum;
    for (const ContextSnapshot &C : T.Contexts)
      Sum += C.Stats;
    EXPECT_EQ(T.Engine.Contexts, 1u);
    EXPECT_TRUE(T.Engine == Sum);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  Engine.stop();
  Engine.unregisterContext(&Ctx);
}

} // namespace

//===- WarmStartTest.cpp - Cross-run warm-start tests ---------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the warm-start path: a context created with
// ContextOptions::warmStart seeds its initial variant from the
// persisted decision and shrinks its observation window; a store miss
// or a corrupt store leaves it exactly cold; the engine's
// loadStore/persistStore cycle carries a context's converged selection
// across "runs"; and the Switch facade exposes the same wiring.
//
//===----------------------------------------------------------------------===//

#include "core/Switch.h"
#include "core/SwitchEngine.h"
#include "model/DefaultModel.h"
#include "store/SelectionStore.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

std::string tempStorePath(const char *Tag) {
  return ::testing::TempDir() + "/cswitch_warmstart_" + Tag +
         ".cswitchstore";
}

/// Writes a one-site store document seeding \p Decision for \p Name
/// under Rtime/List.
void writeSeedStore(const std::string &Path, const std::string &Name,
                    unsigned Decision) {
  StoreSite S;
  S.Name = Name;
  S.Rule = "Rtime";
  S.Kind = AbstractionKind::List;
  S.Decision = Decision;
  S.Runs = 2;
  S.Instances = 50;
  S.MaxSize = 1000;
  S.Counts[static_cast<size_t>(OperationKind::Contains)] = 5000;
  ASSERT_TRUE(writeStoreToFile(Path, {S}));
}

TEST(WarmStart, SeedsVariantAndShrinksWindow) {
  std::string Path = tempStorePath("seed");
  writeSeedStore(Path, "warm:seeded", 1);
  SelectionStore Store;
  ASSERT_TRUE(Store.load(Path));

  ContextOptions Options;
  Options.WindowSize = 100;
  Options.LogEvents = false;
  Options.WarmStart = true;
  Options.Store = &Store;
  ListContext<int64_t> Ctx("warm:seeded", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           Options);
  EXPECT_TRUE(Ctx.warmStarted());
  EXPECT_EQ(Ctx.currentVariantIndex(), 1u);
  // A warm start shrinks the first observation ramp to a quarter.
  EXPECT_EQ(Ctx.options().WindowSize, 25u);
  EXPECT_EQ(Store.stats().WarmStarts, 1u);
  std::remove(Path.c_str());
}

TEST(WarmStart, StoreMissLeavesTheContextCold) {
  SelectionStore Store; // Nothing loaded: every lookup misses.
  ContextOptions Options;
  Options.WindowSize = 100;
  Options.LogEvents = false;
  Options.WarmStart = true;
  Options.Store = &Store;
  ListContext<int64_t> Ctx("warm:miss", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           Options);
  EXPECT_FALSE(Ctx.warmStarted());
  EXPECT_EQ(Ctx.currentVariantIndex(),
            static_cast<unsigned>(ListVariant::ArrayList));
  EXPECT_EQ(Ctx.options().WindowSize, 100u);
  EXPECT_EQ(Store.stats().WarmStarts, 0u);
}

TEST(WarmStart, RuleMismatchIsAMiss) {
  // A decision converged under Rtime must not seed an Ralloc context.
  std::string Path = tempStorePath("rule_miss");
  writeSeedStore(Path, "warm:rule", 1);
  SelectionStore Store;
  ASSERT_TRUE(Store.load(Path));

  ContextOptions Options;
  Options.LogEvents = false;
  Options.WarmStart = true;
  Options.Store = &Store;
  ListContext<int64_t> Ctx("warm:rule", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::allocRule(),
                           Options);
  EXPECT_FALSE(Ctx.warmStarted());
  std::remove(Path.c_str());
}

TEST(WarmStart, CorruptStoreLeavesTheContextCold) {
  std::string Path = tempStorePath("corrupt");
  {
    std::ofstream OS(Path, std::ios::binary);
    OS << "cswitch-store-v1\x01\x02 torn";
  }
  SelectionStore Store;
  EXPECT_FALSE(Store.load(Path));

  ContextOptions Options;
  Options.LogEvents = false;
  Options.WarmStart = true;
  Options.Store = &Store;
  ListContext<int64_t> Ctx("warm:corrupt", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           Options);
  EXPECT_FALSE(Ctx.warmStarted());
  EXPECT_EQ(Ctx.options().WindowSize, 100u);
  EXPECT_EQ(Store.stats().LoadFailures, 1u);
  std::remove(Path.c_str());
}

TEST(WarmStart, EngineCarriesSelectionsAcrossRuns) {
  std::string Path = tempStorePath("engine");
  std::remove(Path.c_str());

  // "Run 1": a context lives, analyzes a window, and unregisters; the
  // engine folds its lifetime aggregate into the store and persists.
  {
    SwitchEngine Engine;
    ASSERT_TRUE(Engine.loadStore(Path));
    ContextOptions Options;
    Options.WindowSize = 10;
    Options.FinishedRatio = 0.6;
    Options.LogEvents = false;
    ListContext<int64_t> Ctx("engine:site", ListVariant::ArrayList,
                             defaultModel(), SelectionRule::timeRule(),
                             Options);
    Engine.registerContext(&Ctx);
    for (int I = 0; I != 10; ++I) {
      List<int64_t> L = Ctx.createList();
      for (int64_t V = 0; V != 50; ++V)
        L.add(V);
      for (int64_t V = 0; V != 100; ++V)
        (void)L.contains(V);
    }
    Ctx.evaluate();
    Engine.unregisterContext(&Ctx);
    ASSERT_TRUE(Engine.persistStore());

    TelemetrySnapshot Snapshot = Engine.telemetry();
    EXPECT_EQ(Snapshot.Store.Loads, 1u);
    EXPECT_GE(Snapshot.Store.Persists, 1u);
    Engine.closeStore();
  }

  // "Run 2": the persisted decision is found and seeds a warm context.
  {
    SwitchEngine Engine;
    ASSERT_TRUE(Engine.loadStore(Path));
    std::shared_ptr<SelectionStore> Store = Engine.store();
    ASSERT_NE(Store, nullptr);
    auto Site =
        Store->lookup("engine:site", "Rtime", AbstractionKind::List);
    ASSERT_TRUE(Site.has_value());
    EXPECT_GT(Site->Instances, 0u);
    EXPECT_GT(Site->Counts[static_cast<size_t>(OperationKind::Contains)],
              0u);

    ContextOptions Options;
    Options.WindowSize = 10;
    Options.LogEvents = false;
    Options.WarmStart = true;
    Options.Store = Store.get();
    ListContext<int64_t> Ctx("engine:site", ListVariant::ArrayList,
                             defaultModel(), SelectionRule::timeRule(),
                             Options);
    EXPECT_TRUE(Ctx.warmStarted());
    EXPECT_EQ(Ctx.currentVariantIndex(), Site->Decision);
    Engine.closeStore();
  }
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

TEST(WarmStart, LiveContextsPersistWithoutUnregistering) {
  std::string Path = tempStorePath("live");
  std::remove(Path.c_str());

  SwitchEngine Engine;
  ASSERT_TRUE(Engine.loadStore(Path));
  ContextOptions Options;
  Options.WindowSize = 10;
  Options.FinishedRatio = 0.6;
  Options.LogEvents = false;
  ListContext<int64_t> Ctx("live:site", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           Options);
  Engine.registerContext(&Ctx);
  for (int I = 0; I != 10; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t V = 0; V != 20; ++V)
      L.add(V);
  }
  Ctx.evaluate();
  ASSERT_TRUE(Engine.persistStore()); // Context still registered.
  Engine.unregisterContext(&Ctx);

  SelectionStore Reader;
  ASSERT_TRUE(Reader.load(Path));
  EXPECT_TRUE(
      Reader.lookup("live:site", "Rtime", AbstractionKind::List)
          .has_value());
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

TEST(WarmStart, SwitchFacadeRoundTrips) {
  std::string Path = tempStorePath("facade");
  std::remove(Path.c_str());
  ASSERT_TRUE(Switch::loadStore(Path));
  EXPECT_NE(Switch::store(), nullptr);
  EXPECT_TRUE(Switch::persistStore());
  Switch::closeStore();
  EXPECT_EQ(Switch::store(), nullptr);
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

} // namespace

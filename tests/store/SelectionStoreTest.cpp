//===- SelectionStoreTest.cpp - Persistent selection store tests ----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Behavioral tests of the SelectionStore: cold starts on missing files,
// graceful degradation on corrupt ones, persist/load round trips,
// idempotent repeated persists, exponential decay across process
// "generations", and the live-site merge path.
//
//===----------------------------------------------------------------------===//

#include "store/SelectionStore.h"
#include "support/EventLog.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace cswitch;

namespace {

/// Fresh temp-file path per test (removed on teardown by callers).
std::string tempStorePath(const char *Tag) {
  return ::testing::TempDir() + "/cswitch_selection_store_" + Tag +
         ".cswitchstore";
}

/// Removes a store document and the lock file persist() creates next to
/// it.
void removeStore(const std::string &Path) {
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

WorkloadProfile profileWith(uint64_t Populate, uint64_t Contains,
                            size_t MaxSize) {
  WorkloadProfile P;
  for (uint64_t I = 0; I != Populate; ++I)
    P.record(OperationKind::Populate, 1);
  for (uint64_t I = 0; I != Contains; ++I)
    P.record(OperationKind::Contains, 1);
  P.recordSize(MaxSize);
  return P;
}

TEST(SelectionStore, MissingFileIsACleanColdStart) {
  SelectionStore Store;
  std::string Path = tempStorePath("missing");
  removeStore(Path);
  std::string Error;
  EXPECT_TRUE(Store.load(Path, &Error)) << Error;
  EXPECT_EQ(Store.siteCount(), 0u);
  EXPECT_FALSE(
      Store.lookup("anything", "Rtime", AbstractionKind::List).has_value());
  StoreStats S = Store.stats();
  EXPECT_EQ(S.Loads, 1u);
  EXPECT_EQ(S.LoadFailures, 0u);
}

TEST(SelectionStore, CorruptFileDegradesToColdStart) {
  std::string Path = tempStorePath("corrupt");
  {
    std::ofstream OS(Path, std::ios::binary);
    OS << "cswitch-store-v1"; // Valid magic, then a torn document.
    OS << "\x01\x05garbage";
  }
  EventLog::global().drain();
  SelectionStore Store;
  std::string Error;
  EXPECT_FALSE(Store.load(Path, &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(Store.siteCount(), 0u);
  StoreStats S = Store.stats();
  EXPECT_EQ(S.Loads, 0u) << "Loads counts successful loads only";
  EXPECT_EQ(S.LoadFailures, 1u);
  // The failure is traced for diagnosis.
  bool SawStoreEvent = false;
  for (const Event &E : EventLog::global().drain())
    if (E.Kind == EventKind::Store &&
        E.Detail.find("load failed") != std::string::npos)
      SawStoreEvent = true;
  EXPECT_TRUE(SawStoreEvent);
  removeStore(Path);
}

TEST(SelectionStore, PersistThenLoadRoundTrips) {
  std::string Path = tempStorePath("roundtrip");
  removeStore(Path);

  SelectionStore Writer;
  ASSERT_TRUE(Writer.load(Path));
  Writer.recordFinished("site:a", "Rtime", AbstractionKind::List, 2,
                        profileWith(10, 300, 1500), 4);
  std::string Error;
  ASSERT_TRUE(Writer.persist(Path, {}, &Error)) << Error;

  SelectionStore Reader;
  ASSERT_TRUE(Reader.load(Path));
  EXPECT_EQ(Reader.siteCount(), 1u);
  auto Site = Reader.lookup("site:a", "Rtime", AbstractionKind::List);
  ASSERT_TRUE(Site.has_value());
  EXPECT_EQ(Site->Decision, 2u);
  EXPECT_EQ(Site->Runs, 1u);
  EXPECT_EQ(Site->Instances, 4u);
  EXPECT_EQ(Site->MaxSize, 1500u);
  EXPECT_EQ(Site->Counts[static_cast<size_t>(OperationKind::Populate)], 10u);
  EXPECT_EQ(Site->Counts[static_cast<size_t>(OperationKind::Contains)],
            300u);
  // The rule is part of the key: the same site under Ralloc is absent.
  EXPECT_FALSE(
      Reader.lookup("site:a", "Ralloc", AbstractionKind::List).has_value());
  removeStore(Path);
}

TEST(SelectionStore, RepeatedPersistsOnlyAddTheDelta) {
  std::string Path = tempStorePath("idempotent");
  removeStore(Path);

  SelectionStore Store;
  ASSERT_TRUE(Store.load(Path));
  Store.recordFinished("site:d", "Rtime", AbstractionKind::Set, 1,
                       profileWith(5, 50, 10), 2);
  ASSERT_TRUE(Store.persist(Path, {}));
  // Persisting again with no new contributions must not double-count.
  ASSERT_TRUE(Store.persist(Path, {}));
  Store.recordFinished("site:d", "Rtime", AbstractionKind::Set, 1,
                       profileWith(5, 50, 10), 2);
  ASSERT_TRUE(Store.persist(Path, {}));

  SelectionStore Reader;
  ASSERT_TRUE(Reader.load(Path));
  auto Site = Reader.lookup("site:d", "Rtime", AbstractionKind::Set);
  ASSERT_TRUE(Site.has_value());
  EXPECT_EQ(Site->Runs, 1u) << "one process = one run, however many persists";
  EXPECT_EQ(Site->Instances, 4u);
  EXPECT_EQ(Site->Counts[static_cast<size_t>(OperationKind::Contains)],
            100u);
  removeStore(Path);
}

TEST(SelectionStore, DecayScalesTheOlderAggregateOncePerRun) {
  std::string Path = tempStorePath("decay");
  removeStore(Path);

  // Generation 1 contributes 100 contains ops over 8 instances.
  {
    SelectionStore Gen1(StoreOptions{}.decayFactor(0.5));
    ASSERT_TRUE(Gen1.load(Path));
    Gen1.recordFinished("svc", "Rtime", AbstractionKind::Map, 3,
                        profileWith(0, 100, 64), 8);
    ASSERT_TRUE(Gen1.persist(Path, {}));
  }
  // Generation 2 halves the old aggregate, then adds its own 40/2.
  {
    SelectionStore Gen2(StoreOptions{}.decayFactor(0.5));
    ASSERT_TRUE(Gen2.load(Path));
    Gen2.recordFinished("svc", "Rtime", AbstractionKind::Map, 1,
                        profileWith(0, 40, 32), 2);
    ASSERT_TRUE(Gen2.persist(Path, {}));
  }
  SelectionStore Reader;
  ASSERT_TRUE(Reader.load(Path));
  auto Site = Reader.lookup("svc", "Rtime", AbstractionKind::Map);
  ASSERT_TRUE(Site.has_value());
  EXPECT_EQ(Site->Runs, 2u);
  EXPECT_EQ(Site->Counts[static_cast<size_t>(OperationKind::Contains)],
            50u + 40u);
  EXPECT_EQ(Site->Instances, 4u + 2u);
  EXPECT_EQ(Site->Decision, 1u) << "the newest run's decision wins";
  // MaxSize tracks the historical high-water mark, undecayed.
  EXPECT_EQ(Site->MaxSize, 64u);
  removeStore(Path);
}

TEST(SelectionStore, LiveSitesMergeWithoutFinishing) {
  std::string Path = tempStorePath("live");
  removeStore(Path);

  SelectionStore Store;
  ASSERT_TRUE(Store.load(Path));
  SelectionStore::LiveSite Live;
  Live.Name = "live:site";
  Live.Rule = "Ralloc";
  Live.Kind = AbstractionKind::List;
  Live.Decision = 3;
  Live.Profile = profileWith(7, 0, 9);
  Live.Instances = 3;
  ASSERT_TRUE(Store.persist(Path, {Live}));

  SelectionStore Reader;
  ASSERT_TRUE(Reader.load(Path));
  auto Site = Reader.lookup("live:site", "Ralloc", AbstractionKind::List);
  ASSERT_TRUE(Site.has_value());
  EXPECT_EQ(Site->Decision, 3u);
  EXPECT_EQ(Site->Instances, 3u);

  // Zero-instance live sites are noise, not knowledge: never persisted.
  SelectionStore Empty;
  std::string Path2 = tempStorePath("live_empty");
  removeStore(Path2);
  ASSERT_TRUE(Empty.load(Path2));
  SelectionStore::LiveSite Idle = Live;
  Idle.Instances = 0;
  ASSERT_TRUE(Empty.persist(Path2, {Idle}));
  SelectionStore Reader2;
  ASSERT_TRUE(Reader2.load(Path2));
  EXPECT_EQ(Reader2.siteCount(), 0u);
  removeStore(Path);
  removeStore(Path2);
}

TEST(SelectionStore, PersistReplacesACorruptOnDiskDocument) {
  std::string Path = tempStorePath("replace_corrupt");
  {
    std::ofstream OS(Path, std::ios::binary);
    OS << "definitely not a store";
  }
  SelectionStore Store;
  Store.recordFinished("fresh", "Rtime", AbstractionKind::List, 1,
                       profileWith(1, 1, 1), 1);
  std::string Error;
  EXPECT_TRUE(Store.persist(Path, {}, &Error)) << Error;
  EXPECT_GE(Store.stats().LoadFailures, 1u);

  SelectionStore Reader;
  ASSERT_TRUE(Reader.load(Path));
  EXPECT_EQ(Reader.siteCount(), 1u);
  removeStore(Path);
}

TEST(SelectionStore, StatsCountWarmStarts) {
  SelectionStore Store;
  Store.noteWarmStart();
  Store.noteWarmStart();
  EXPECT_EQ(Store.stats().WarmStarts, 2u);
}

TEST(SelectionStore, DecayFactorIsClampedToUnitRange) {
  EXPECT_EQ(SelectionStore(StoreOptions{}.decayFactor(7.0))
                .options()
                .DecayFactor,
            1.0);
  EXPECT_EQ(SelectionStore(StoreOptions{}.decayFactor(-1.0))
                .options()
                .DecayFactor,
            0.0);
}

} // namespace

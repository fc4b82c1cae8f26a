//===- AdaptiveCollectionsTest.cpp - Instance-level adaptivity tests --------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the instance-level adaptation (paper §3.2): the adaptive
/// variants must migrate their representation exactly when the size
/// crosses the threshold, preserve all contents across the migration,
/// and count migrations in the global statistics.
///
//===----------------------------------------------------------------------===//

#include "collections/AdaptiveList.h"
#include "collections/AdaptiveMap.h"
#include "collections/AdaptiveSet.h"

#include "support/MemoryTracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace cswitch;

namespace {

TEST(AdaptiveList, MigratesExactlyAboveThreshold) {
  AdaptiveListImpl<int64_t> L(10);
  for (int64_t I = 0; I != 10; ++I)
    L.push_back(I);
  EXPECT_FALSE(L.hasMigrated());
  L.push_back(10); // size 11 > threshold 10.
  EXPECT_TRUE(L.hasMigrated());
}

TEST(AdaptiveList, ContentsSurviveMigration) {
  AdaptiveListImpl<int64_t> L(16);
  for (int64_t I = 0; I != 40; ++I)
    L.push_back(I * 3);
  EXPECT_TRUE(L.hasMigrated());
  ASSERT_EQ(L.size(), 40u);
  for (size_t I = 0; I != 40; ++I)
    EXPECT_EQ(L.at(I), static_cast<int64_t>(I) * 3);
  for (int64_t I = 0; I != 40; ++I)
    EXPECT_TRUE(L.contains(I * 3));
  EXPECT_FALSE(L.contains(1));
}

TEST(AdaptiveList, IndexStaysConsistentAfterMigration) {
  AdaptiveListImpl<int64_t> L(8);
  for (int64_t I = 0; I != 20; ++I)
    L.push_back(I);
  // Mutations after migration must maintain the hash index.
  L.set(0, 100);
  EXPECT_FALSE(L.contains(0));
  EXPECT_TRUE(L.contains(100));
  EXPECT_TRUE(L.removeValue(100));
  EXPECT_FALSE(L.contains(100));
  L.removeAt(0); // removes value 1.
  EXPECT_FALSE(L.contains(1));
  EXPECT_EQ(L.size(), 18u);
}

TEST(AdaptiveList, ClearResetsToArrayRepresentation) {
  AdaptiveListImpl<int64_t> L(4);
  for (int64_t I = 0; I != 10; ++I)
    L.push_back(I);
  EXPECT_TRUE(L.hasMigrated());
  L.clear();
  EXPECT_FALSE(L.hasMigrated());
  EXPECT_EQ(L.size(), 0u);
  L.push_back(1);
  EXPECT_TRUE(L.contains(1));
}

TEST(AdaptiveList, InsertAtTriggersMigrationToo) {
  AdaptiveListImpl<int64_t> L(5);
  for (int64_t I = 0; I != 5; ++I)
    L.push_back(I);
  L.insertAt(2, 99);
  EXPECT_TRUE(L.hasMigrated());
  EXPECT_TRUE(L.contains(99));
  EXPECT_EQ(L.at(2), 99);
}

TEST(AdaptiveList, MigrationAllocatesTheIndexOnce) {
  // The index is sized for the larger of the pending reservation and the
  // size before the elements go in, so the migrating push allocates one
  // table and, with the array's capacity unchanged, nothing else.
  for (size_t Reserve : {0, 30, 200}) {
    SCOPED_TRACE(Reserve);
    AdaptiveListImpl<int64_t> L(40);
    L.reserve(Reserve);
    for (int64_t I = 0; I != 40; ++I)
      L.push_back(I % 25);
    size_t Before = L.memoryFootprint();
    AllocationScope Scope;
    L.push_back(40);
    uint64_t Allocated = Scope.allocatedInScope();
    ASSERT_TRUE(L.hasMigrated());
    detail::HashBag<int64_t> Expected;
    Expected.reserve(std::max<size_t>(Reserve, 41));
    EXPECT_EQ(Allocated, Expected.memoryFootprint());
    EXPECT_EQ(L.memoryFootprint() - Before, Expected.memoryFootprint());
  }
}

TEST(AdaptiveList, RemoveValueKeepsDuplicatesIndexed) {
  AdaptiveListImpl<int64_t> L(4);
  for (int64_t I = 0; I != 10; ++I)
    L.push_back(I % 3);
  ASSERT_TRUE(L.hasMigrated());
  // Value 0 appears four times: each removal drops one occurrence.
  for (int I = 0; I != 4; ++I) {
    EXPECT_TRUE(L.contains(0));
    EXPECT_TRUE(L.removeValue(0));
  }
  EXPECT_FALSE(L.contains(0));
  EXPECT_FALSE(L.removeValue(0));
  EXPECT_EQ(L.size(), 6u);
  EXPECT_TRUE(L.contains(1));
  EXPECT_TRUE(L.contains(2));
}

TEST(AdaptiveSet, MigratesExactlyAboveThreshold) {
  AdaptiveSetImpl<int64_t> S(6);
  for (int64_t I = 0; I != 6; ++I)
    S.add(I);
  EXPECT_FALSE(S.hasMigrated());
  // Duplicate adds do not grow the set and must not migrate it.
  S.add(3);
  EXPECT_FALSE(S.hasMigrated());
  S.add(6);
  EXPECT_TRUE(S.hasMigrated());
  EXPECT_EQ(S.size(), 7u);
}

TEST(AdaptiveSet, ContentsSurviveMigration) {
  AdaptiveSetImpl<int64_t> S(10);
  for (int64_t I = 0; I != 50; ++I)
    S.add(I * 2);
  EXPECT_TRUE(S.hasMigrated());
  EXPECT_EQ(S.size(), 50u);
  for (int64_t I = 0; I != 50; ++I) {
    EXPECT_TRUE(S.contains(I * 2));
    EXPECT_FALSE(S.contains(I * 2 + 1));
  }
}

TEST(AdaptiveSet, RemoveWorksInBothRepresentations) {
  AdaptiveSetImpl<int64_t> S(10);
  for (int64_t I = 0; I != 5; ++I)
    S.add(I);
  EXPECT_TRUE(S.remove(3));
  EXPECT_FALSE(S.remove(3));
  for (int64_t I = 10; I != 40; ++I)
    S.add(I);
  EXPECT_TRUE(S.hasMigrated());
  EXPECT_TRUE(S.remove(20));
  EXPECT_FALSE(S.contains(20));
}

TEST(AdaptiveSet, ForEachCoversBothRepresentations) {
  AdaptiveSetImpl<int64_t> Small(100);
  Small.add(1);
  Small.add(2);
  std::vector<int64_t> SeenSmall;
  Small.forEach([&SeenSmall](const int64_t &V) { SeenSmall.push_back(V); });
  EXPECT_EQ(SeenSmall, (std::vector<int64_t>{1, 2}));

  AdaptiveSetImpl<int64_t> Big(2);
  for (int64_t I = 0; I != 10; ++I)
    Big.add(I);
  std::vector<int64_t> SeenBig;
  Big.forEach([&SeenBig](const int64_t &V) { SeenBig.push_back(V); });
  std::sort(SeenBig.begin(), SeenBig.end());
  ASSERT_EQ(SeenBig.size(), 10u);
  for (int64_t I = 0; I != 10; ++I)
    EXPECT_EQ(SeenBig[static_cast<size_t>(I)], I);
}

TEST(AdaptiveMap, MigratesExactlyAboveThreshold) {
  AdaptiveMapImpl<int64_t, int64_t> M(4);
  for (int64_t I = 0; I != 4; ++I)
    M.put(I, I);
  EXPECT_FALSE(M.hasMigrated());
  M.put(0, 99); // overwrite: no growth, no migration.
  EXPECT_FALSE(M.hasMigrated());
  M.put(4, 4);
  EXPECT_TRUE(M.hasMigrated());
  EXPECT_EQ(*M.get(0), 99);
}

TEST(AdaptiveMap, ContentsSurviveMigration) {
  AdaptiveMapImpl<int64_t, int64_t> M(12);
  for (int64_t I = 0; I != 60; ++I)
    M.put(I, I * I);
  EXPECT_TRUE(M.hasMigrated());
  EXPECT_EQ(M.size(), 60u);
  for (int64_t I = 0; I != 60; ++I) {
    const int64_t *V = M.get(I);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, I * I);
  }
}

TEST(AdaptiveMap, GetMutableInBothRepresentations) {
  AdaptiveMapImpl<int64_t, int64_t> M(10);
  M.put(1, 1);
  *M.getMutable(1) = 5;
  EXPECT_EQ(*M.get(1), 5);
  for (int64_t I = 2; I != 30; ++I)
    M.put(I, I);
  EXPECT_TRUE(M.hasMigrated());
  *M.getMutable(1) = 7;
  EXPECT_EQ(*M.get(1), 7);
}

TEST(AdaptiveConfigStats, MigrationsAreCounted) {
  AdaptiveConfig::global().resetStats();
  {
    AdaptiveSetImpl<int64_t> S(3);
    for (int64_t I = 0; I != 5; ++I)
      S.add(I);
  }
  {
    AdaptiveMapImpl<int64_t, int64_t> M(3);
    for (int64_t I = 0; I != 5; ++I)
      M.put(I, I);
  }
  EXPECT_EQ(AdaptiveConfig::global().migrationCount(), 2u);
  AdaptiveConfig::global().resetStats();
  EXPECT_EQ(AdaptiveConfig::global().migrationCount(), 0u);
}

TEST(AdaptiveConfigStats, GlobalThresholdsMatchPaperTable1ByDefault) {
  AdaptiveThresholds T = AdaptiveConfig::global().thresholds();
  EXPECT_EQ(T.List, 80u);
  EXPECT_EQ(T.Set, 40u);
  EXPECT_EQ(T.Map, 50u);
}

TEST(AdaptiveConfigStats, InstalledThresholdsReachNewInstances) {
  AdaptiveThresholds Old = AdaptiveConfig::global().thresholds();
  AdaptiveThresholds Custom{7, 8, 9};
  AdaptiveConfig::global().setThresholds(Custom);
  AdaptiveListImpl<int64_t> L;
  AdaptiveSetImpl<int64_t> S;
  AdaptiveMapImpl<int64_t, int64_t> M;
  EXPECT_EQ(L.threshold(), 7u);
  EXPECT_EQ(S.threshold(), 8u);
  EXPECT_EQ(M.threshold(), 9u);
  AdaptiveConfig::global().setThresholds(Old);
}

TEST(AdaptiveFootprint, HashIndexCostAppearsOnlyAfterMigration) {
  AdaptiveSetImpl<int64_t> Small(1000);
  AdaptiveSetImpl<int64_t> Big(10);
  for (int64_t I = 0; I != 100; ++I) {
    Small.add(I);
    Big.add(I);
  }
  EXPECT_FALSE(Small.hasMigrated());
  EXPECT_TRUE(Big.hasMigrated());
  // Same contents; the migrated instance pays for the hash table.
  EXPECT_GT(Big.memoryFootprint(), 100 * sizeof(int64_t));
}

} // namespace

//===- MapVariantsTest.cpp - Parameterized map variant tests ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every map variant must satisfy the identical semantic contract. Runs
/// each variant through the same suite, including a randomized
/// differential test against std::map.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace cswitch;

namespace {

class MapVariantTest : public ::testing::TestWithParam<MapVariant> {
protected:
  std::unique_ptr<MapImpl<int64_t, int64_t>> make() {
    return makeMapImpl<int64_t, int64_t>(GetParam());
  }
};

TEST_P(MapVariantTest, StartsEmpty) {
  auto M = make();
  EXPECT_EQ(M->size(), 0u);
  EXPECT_TRUE(M->empty());
  EXPECT_EQ(M->get(0), nullptr);
  EXPECT_FALSE(M->containsKey(0));
  EXPECT_FALSE(M->remove(0));
}

TEST_P(MapVariantTest, PutReportsNoveltyAndOverwrites) {
  auto M = make();
  EXPECT_TRUE(M->put(1, 100));
  EXPECT_FALSE(M->put(1, 200));
  EXPECT_EQ(M->size(), 1u);
  const int64_t *V = M->get(1);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(*V, 200);
}

TEST_P(MapVariantTest, GetMutableWritesThrough) {
  auto M = make();
  M->put(5, 50);
  int64_t *V = M->getMutable(5);
  ASSERT_NE(V, nullptr);
  *V = 99;
  EXPECT_EQ(*M->get(5), 99);
  EXPECT_EQ(M->getMutable(6), nullptr);
}

TEST_P(MapVariantTest, RemoveErasesMapping) {
  auto M = make();
  M->put(1, 10);
  M->put(2, 20);
  EXPECT_TRUE(M->remove(1));
  EXPECT_FALSE(M->remove(1));
  EXPECT_EQ(M->size(), 1u);
  EXPECT_EQ(M->get(1), nullptr);
  EXPECT_NE(M->get(2), nullptr);
}

TEST_P(MapVariantTest, ClearEmptiesAndStaysUsable) {
  auto M = make();
  for (int64_t I = 0; I != 200; ++I)
    M->put(I, I);
  M->clear();
  EXPECT_EQ(M->size(), 0u);
  EXPECT_EQ(M->get(100), nullptr);
  EXPECT_TRUE(M->put(100, 1));
  EXPECT_EQ(M->size(), 1u);
}

TEST_P(MapVariantTest, ForEachVisitsExactlyTheMappings) {
  auto M = make();
  std::map<int64_t, int64_t> Expected;
  SplitMix64 Rng(41);
  for (int I = 0; I != 300; ++I) {
    int64_t K = static_cast<int64_t>(Rng.nextBelow(500));
    int64_t V = static_cast<int64_t>(Rng.nextBelow(1000));
    M->put(K, V);
    Expected[K] = V;
  }
  std::vector<std::pair<int64_t, int64_t>> Seen;
  M->forEach([&Seen](const int64_t &K, const int64_t &V) {
    Seen.emplace_back(K, V);
  });
  std::sort(Seen.begin(), Seen.end());
  std::vector<std::pair<int64_t, int64_t>> ExpectedSorted(
      Expected.begin(), Expected.end());
  EXPECT_EQ(Seen, ExpectedSorted);
}

TEST_P(MapVariantTest, GrowthAcrossRehashesKeepsAllMappings) {
  auto M = make();
  constexpr int64_t N = 4000;
  for (int64_t I = 0; I != N; ++I)
    EXPECT_TRUE(M->put(I * 3, I));
  EXPECT_EQ(M->size(), static_cast<size_t>(N));
  for (int64_t I = 0; I != N; ++I) {
    const int64_t *V = M->get(I * 3);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, I);
  }
  EXPECT_EQ(M->get(-3), nullptr);
}

TEST_P(MapVariantTest, TombstoneChurnKeepsLookupsCorrect) {
  auto M = make();
  for (int64_t I = 0; I != 64; ++I)
    M->put(I, I * 2);
  SplitMix64 Rng(42);
  for (int Round = 0; Round != 3000; ++Round) {
    int64_t Victim = static_cast<int64_t>(Rng.nextBelow(64));
    EXPECT_TRUE(M->remove(Victim));
    EXPECT_EQ(M->get(Victim), nullptr);
    EXPECT_TRUE(M->put(Victim, Victim * 2));
    ASSERT_EQ(M->size(), 64u);
  }
  for (int64_t I = 0; I != 64; ++I) {
    const int64_t *V = M->get(I);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, I * 2);
  }
}

TEST_P(MapVariantTest, ReservePreservesContents) {
  auto M = make();
  for (int64_t I = 0; I != 10; ++I)
    M->put(I, I);
  M->reserve(10000);
  EXPECT_EQ(M->size(), 10u);
  for (int64_t I = 0; I != 10; ++I)
    EXPECT_NE(M->get(I), nullptr);
}

TEST_P(MapVariantTest, MemoryFootprintGrowsWithContents) {
  auto M = make();
  size_t Empty = M->memoryFootprint();
  for (int64_t I = 0; I != 1000; ++I)
    M->put(I, I);
  EXPECT_GT(M->memoryFootprint(), Empty);
  EXPECT_GE(M->memoryFootprint(), 1000 * 2 * sizeof(int64_t));
}

TEST_P(MapVariantTest, VariantMatchesFactory) {
  auto M = make();
  EXPECT_EQ(M->variant(), GetParam());
}

TEST_P(MapVariantTest, NegativeAndExtremeKeys) {
  auto M = make();
  std::vector<int64_t> Keys = {0, -1, INT64_MIN, INT64_MAX, -42};
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_TRUE(M->put(Keys[I], static_cast<int64_t>(I)));
  for (size_t I = 0; I != Keys.size(); ++I) {
    const int64_t *V = M->get(Keys[I]);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, static_cast<int64_t>(I));
  }
}

TEST_P(MapVariantTest, DifferentialAgainstStdMap) {
  for (uint64_t Seed : {51u, 52u, 53u, 54u, 55u}) {
    SplitMix64 Rng(Seed);
    auto M = make();
    std::map<int64_t, int64_t> Ref;
    for (int Op = 0; Op != 800; ++Op) {
      int64_t K = static_cast<int64_t>(Rng.nextBelow(100));
      switch (Rng.nextBelow(4)) {
      case 0:
      case 1: { // put (weighted)
        int64_t V = static_cast<int64_t>(Rng.nextBelow(1000));
        bool New = Ref.find(K) == Ref.end();
        EXPECT_EQ(M->put(K, V), New);
        Ref[K] = V;
        break;
      }
      case 2: { // remove
        EXPECT_EQ(M->remove(K), Ref.erase(K) > 0);
        break;
      }
      case 3: { // get
        const int64_t *V = M->get(K);
        auto It = Ref.find(K);
        if (It == Ref.end()) {
          EXPECT_EQ(V, nullptr);
        } else {
          ASSERT_NE(V, nullptr);
          EXPECT_EQ(*V, It->second);
        }
        EXPECT_EQ(M->containsKey(K), It != Ref.end());
        break;
      }
      }
      ASSERT_EQ(M->size(), Ref.size());
    }
    std::vector<std::pair<int64_t, int64_t>> Snapshot;
    M->forEach([&Snapshot](const int64_t &K, const int64_t &V) {
      Snapshot.emplace_back(K, V);
    });
    std::sort(Snapshot.begin(), Snapshot.end());
    std::vector<std::pair<int64_t, int64_t>> Expected(Ref.begin(),
                                                      Ref.end());
    EXPECT_EQ(Snapshot, Expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, MapVariantTest, ::testing::ValuesIn(AllMapVariants),
    [](const ::testing::TestParamInfo<MapVariant> &Info) {
      return mapVariantName(Info.param);
    });

// Order- and footprint-specific behaviour beyond the common contract.

TEST(LinkedHashMap, IteratesInInsertionOrder) {
  auto M = makeMapImpl<int64_t, int64_t>(MapVariant::LinkedHashMap);
  std::vector<int64_t> Keys = {9, 2, 7, 4};
  for (int64_t K : Keys)
    M->put(K, K * 10);
  M->put(2, 222); // overwrite must not disturb the order.
  std::vector<int64_t> Seen;
  M->forEach([&Seen](const int64_t &K, const int64_t &) {
    Seen.push_back(K);
  });
  EXPECT_EQ(Seen, Keys);
  EXPECT_EQ(*M->get(2), 222);
}

TEST(ArrayMap, IteratesInInsertionOrder) {
  auto M = makeMapImpl<int64_t, int64_t>(MapVariant::ArrayMap);
  std::vector<int64_t> Keys = {5, 1, 3};
  for (int64_t K : Keys)
    M->put(K, K);
  std::vector<int64_t> Seen;
  M->forEach([&Seen](const int64_t &K, const int64_t &) {
    Seen.push_back(K);
  });
  EXPECT_EQ(Seen, Keys);
}

TEST(ArrayMap, SmallestFootprintAtSmallSizes) {
  // The paper's premise (§3.1.2): ArrayMap is the memory-efficient map.
  for (MapVariant Other :
       {MapVariant::ChainedHashMap, MapVariant::OpenHashMap,
        MapVariant::LinkedHashMap}) {
    auto Array = makeMapImpl<int64_t, int64_t>(MapVariant::ArrayMap);
    auto Rival = makeMapImpl<int64_t, int64_t>(Other);
    for (int64_t I = 0; I != 16; ++I) {
      Array->put(I, I);
      Rival->put(I, I);
    }
    EXPECT_LT(Array->memoryFootprint(), Rival->memoryFootprint())
        << "vs " << mapVariantName(Other);
  }
}

} // namespace

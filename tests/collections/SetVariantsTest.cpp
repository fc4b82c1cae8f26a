//===- SetVariantsTest.cpp - Parameterized set variant tests ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every set variant must satisfy the identical semantic contract. Runs
/// each variant through the same suite, including a randomized
/// differential test against std::set and a tombstone-churn stress test
/// that targets the open-addressing deletion path.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace cswitch;

namespace {

class SetVariantTest : public ::testing::TestWithParam<SetVariant> {
protected:
  std::unique_ptr<SetImpl<int64_t>> make() {
    return makeSetImpl<int64_t>(GetParam());
  }
};

TEST_P(SetVariantTest, StartsEmpty) {
  auto S = make();
  EXPECT_EQ(S->size(), 0u);
  EXPECT_TRUE(S->empty());
  EXPECT_FALSE(S->contains(0));
  EXPECT_FALSE(S->remove(0));
}

TEST_P(SetVariantTest, AddReportsNovelty) {
  auto S = make();
  EXPECT_TRUE(S->add(5));
  EXPECT_FALSE(S->add(5));
  EXPECT_EQ(S->size(), 1u);
  EXPECT_TRUE(S->add(6));
  EXPECT_EQ(S->size(), 2u);
}

TEST_P(SetVariantTest, ContainsTracksMembership) {
  auto S = make();
  S->add(10);
  EXPECT_TRUE(S->contains(10));
  EXPECT_FALSE(S->contains(11));
  EXPECT_TRUE(S->remove(10));
  EXPECT_FALSE(S->contains(10));
  EXPECT_FALSE(S->remove(10));
}

TEST_P(SetVariantTest, ClearEmptiesAndStaysUsable) {
  auto S = make();
  for (int64_t I = 0; I != 200; ++I)
    S->add(I);
  S->clear();
  EXPECT_EQ(S->size(), 0u);
  EXPECT_FALSE(S->contains(100));
  EXPECT_TRUE(S->add(100));
  EXPECT_EQ(S->size(), 1u);
}

TEST_P(SetVariantTest, ForEachVisitsExactlyTheElements) {
  auto S = make();
  std::set<int64_t> Expected;
  SplitMix64 Rng(21);
  for (int I = 0; I != 300; ++I) {
    int64_t V = static_cast<int64_t>(Rng.nextBelow(1000));
    S->add(V);
    Expected.insert(V);
  }
  std::vector<int64_t> Seen;
  S->forEach([&Seen](const int64_t &V) { Seen.push_back(V); });
  std::sort(Seen.begin(), Seen.end());
  std::vector<int64_t> ExpectedSorted(Expected.begin(), Expected.end());
  EXPECT_EQ(Seen, ExpectedSorted);
}

TEST_P(SetVariantTest, ReservePreservesContents) {
  auto S = make();
  for (int64_t I = 0; I != 10; ++I)
    S->add(I);
  S->reserve(10000);
  EXPECT_EQ(S->size(), 10u);
  for (int64_t I = 0; I != 10; ++I)
    EXPECT_TRUE(S->contains(I));
}

TEST_P(SetVariantTest, GrowthAcrossRehashesKeepsAllElements) {
  auto S = make();
  constexpr int64_t N = 4000;
  for (int64_t I = 0; I != N; ++I)
    EXPECT_TRUE(S->add(I * 7));
  EXPECT_EQ(S->size(), static_cast<size_t>(N));
  for (int64_t I = 0; I != N; ++I)
    EXPECT_TRUE(S->contains(I * 7));
  EXPECT_FALSE(S->contains(-1));
}

TEST_P(SetVariantTest, TombstoneChurnKeepsLookupsCorrect) {
  // Repeated add/remove at stable size exercises tombstone reuse in the
  // open-addressing variants (and is harmless for the others).
  auto S = make();
  for (int64_t I = 0; I != 64; ++I)
    S->add(I);
  SplitMix64 Rng(22);
  for (int Round = 0; Round != 3000; ++Round) {
    int64_t Victim = static_cast<int64_t>(Rng.nextBelow(64));
    EXPECT_TRUE(S->remove(Victim));
    EXPECT_FALSE(S->contains(Victim));
    EXPECT_TRUE(S->add(Victim));
    EXPECT_TRUE(S->contains(Victim));
    ASSERT_EQ(S->size(), 64u);
  }
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_TRUE(S->contains(I));
}

TEST_P(SetVariantTest, MemoryFootprintGrowsWithContents) {
  auto S = make();
  size_t Empty = S->memoryFootprint();
  for (int64_t I = 0; I != 1000; ++I)
    S->add(I);
  EXPECT_GT(S->memoryFootprint(), Empty);
  EXPECT_GE(S->memoryFootprint(), 1000 * sizeof(int64_t));
}

TEST_P(SetVariantTest, VariantMatchesFactory) {
  auto S = make();
  EXPECT_EQ(S->variant(), GetParam());
}

TEST_P(SetVariantTest, NegativeAndExtremeKeys) {
  auto S = make();
  std::vector<int64_t> Keys = {0, -1, INT64_MIN, INT64_MAX, -123456789,
                               987654321};
  for (int64_t K : Keys)
    EXPECT_TRUE(S->add(K));
  EXPECT_EQ(S->size(), Keys.size());
  for (int64_t K : Keys)
    EXPECT_TRUE(S->contains(K));
  for (int64_t K : Keys)
    EXPECT_TRUE(S->remove(K));
  EXPECT_TRUE(S->empty());
}

TEST_P(SetVariantTest, DifferentialAgainstStdSet) {
  for (uint64_t Seed : {31u, 32u, 33u, 34u, 35u}) {
    SplitMix64 Rng(Seed);
    auto S = make();
    std::set<int64_t> Ref;
    for (int Op = 0; Op != 800; ++Op) {
      int64_t V = static_cast<int64_t>(Rng.nextBelow(120));
      switch (Rng.nextBelow(4)) {
      case 0:
      case 1: { // add (weighted)
        EXPECT_EQ(S->add(V), Ref.insert(V).second);
        break;
      }
      case 2: { // remove
        EXPECT_EQ(S->remove(V), Ref.erase(V) > 0);
        break;
      }
      case 3: { // contains
        EXPECT_EQ(S->contains(V), Ref.count(V) > 0);
        break;
      }
      }
      ASSERT_EQ(S->size(), Ref.size());
    }
    std::vector<int64_t> Snapshot;
    S->forEach([&Snapshot](const int64_t &V) { Snapshot.push_back(V); });
    std::sort(Snapshot.begin(), Snapshot.end());
    std::vector<int64_t> Expected(Ref.begin(), Ref.end());
    EXPECT_EQ(Snapshot, Expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SetVariantTest, ::testing::ValuesIn(AllSetVariants),
    [](const ::testing::TestParamInfo<SetVariant> &Info) {
      return setVariantName(Info.param);
    });

// Order-specific behaviour beyond the common contract.

TEST(LinkedHashSet, IteratesInInsertionOrder) {
  auto S = makeSetImpl<int64_t>(SetVariant::LinkedHashSet);
  std::vector<int64_t> Inserted = {5, 3, 9, 1, 7};
  for (int64_t V : Inserted)
    S->add(V);
  S->add(3); // duplicate must not disturb the order.
  std::vector<int64_t> Seen;
  S->forEach([&Seen](const int64_t &V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, Inserted);
}

TEST(LinkedHashSet, OrderSurvivesRemovalAndRehash) {
  auto S = makeSetImpl<int64_t>(SetVariant::LinkedHashSet);
  for (int64_t I = 0; I != 100; ++I)
    S->add(I);
  S->remove(0);
  S->remove(50);
  S->remove(99);
  std::vector<int64_t> Seen;
  S->forEach([&Seen](const int64_t &V) { Seen.push_back(V); });
  ASSERT_EQ(Seen.size(), 97u);
  EXPECT_TRUE(std::is_sorted(Seen.begin(), Seen.end()));
  EXPECT_EQ(Seen.front(), 1);
  EXPECT_EQ(Seen.back(), 98);
}

TEST(ArraySet, IteratesInInsertionOrder) {
  auto S = makeSetImpl<int64_t>(SetVariant::ArraySet);
  std::vector<int64_t> Inserted = {42, 17, 99};
  for (int64_t V : Inserted)
    S->add(V);
  std::vector<int64_t> Seen;
  S->forEach([&Seen](const int64_t &V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, Inserted);
}

TEST(CompactHashSet, SmallerFootprintThanOpenHashSet) {
  auto Compact = makeSetImpl<int64_t>(SetVariant::CompactHashSet);
  auto Open = makeSetImpl<int64_t>(SetVariant::OpenHashSet);
  for (int64_t I = 0; I != 10000; ++I) {
    Compact->add(I);
    Open->add(I);
  }
  EXPECT_LT(Compact->memoryFootprint(), Open->memoryFootprint());
}

TEST(ChainedHashSet, HigherFootprintThanOpenHashSet) {
  auto Chained = makeSetImpl<int64_t>(SetVariant::ChainedHashSet);
  auto Compact = makeSetImpl<int64_t>(SetVariant::CompactHashSet);
  for (int64_t I = 0; I != 10000; ++I) {
    Chained->add(I);
    Compact->add(I);
  }
  // Node-based chaining pays per-element pointer overhead.
  EXPECT_GT(Chained->memoryFootprint(), Compact->memoryFootprint());
}

} // namespace

//===- ListVariantsTest.cpp - Parameterized list variant tests -------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every list variant must satisfy the identical semantic contract — the
/// property the selection framework relies on to swap variants freely.
/// These tests run each variant through the same suite, including a
/// randomized differential test against std::vector as the reference
/// semantics.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace cswitch;

namespace {

class ListVariantTest : public ::testing::TestWithParam<ListVariant> {
protected:
  std::unique_ptr<ListImpl<int64_t>> make() {
    return makeListImpl<int64_t>(GetParam());
  }
};

TEST_P(ListVariantTest, StartsEmpty) {
  auto L = make();
  EXPECT_EQ(L->size(), 0u);
  EXPECT_TRUE(L->empty());
  EXPECT_FALSE(L->contains(0));
}

TEST_P(ListVariantTest, PushBackAppendsInOrder) {
  auto L = make();
  for (int64_t I = 0; I != 10; ++I)
    L->push_back(I * 5);
  EXPECT_EQ(L->size(), 10u);
  for (size_t I = 0; I != 10; ++I)
    EXPECT_EQ(L->at(I), static_cast<int64_t>(I) * 5);
}

TEST_P(ListVariantTest, AllowsDuplicates) {
  auto L = make();
  L->push_back(7);
  L->push_back(7);
  L->push_back(7);
  EXPECT_EQ(L->size(), 3u);
  EXPECT_TRUE(L->contains(7));
  EXPECT_TRUE(L->removeValue(7));
  EXPECT_EQ(L->size(), 2u);
  EXPECT_TRUE(L->contains(7));
}

TEST_P(ListVariantTest, InsertAtFrontMiddleBack) {
  auto L = make();
  L->push_back(1);
  L->push_back(3);
  L->insertAt(1, 2);      // middle
  L->insertAt(0, 0);      // front
  L->insertAt(L->size(), 4); // back
  ASSERT_EQ(L->size(), 5u);
  for (size_t I = 0; I != 5; ++I)
    EXPECT_EQ(L->at(I), static_cast<int64_t>(I));
}

TEST_P(ListVariantTest, RemoveAtShiftsElements) {
  auto L = make();
  for (int64_t I = 0; I != 5; ++I)
    L->push_back(I);
  L->removeAt(2);
  ASSERT_EQ(L->size(), 4u);
  EXPECT_EQ(L->at(0), 0);
  EXPECT_EQ(L->at(1), 1);
  EXPECT_EQ(L->at(2), 3);
  EXPECT_EQ(L->at(3), 4);
}

TEST_P(ListVariantTest, RemoveValueFirstOccurrenceOnly) {
  auto L = make();
  L->push_back(1);
  L->push_back(2);
  L->push_back(1);
  EXPECT_TRUE(L->removeValue(1));
  ASSERT_EQ(L->size(), 2u);
  EXPECT_EQ(L->at(0), 2);
  EXPECT_EQ(L->at(1), 1);
  EXPECT_FALSE(L->removeValue(42));
}

TEST_P(ListVariantTest, SetReplacesElement) {
  auto L = make();
  L->push_back(10);
  L->push_back(20);
  L->set(1, 99);
  EXPECT_EQ(L->at(1), 99);
  EXPECT_TRUE(L->contains(99));
  EXPECT_FALSE(L->contains(20));
  EXPECT_TRUE(L->contains(10));
}

TEST_P(ListVariantTest, ContainsReflectsMutations) {
  auto L = make();
  EXPECT_FALSE(L->contains(5));
  L->push_back(5);
  EXPECT_TRUE(L->contains(5));
  L->removeValue(5);
  EXPECT_FALSE(L->contains(5));
}

TEST_P(ListVariantTest, ClearEmptiesAndStaysUsable) {
  auto L = make();
  for (int64_t I = 0; I != 100; ++I)
    L->push_back(I);
  L->clear();
  EXPECT_EQ(L->size(), 0u);
  EXPECT_FALSE(L->contains(50));
  L->push_back(7);
  EXPECT_EQ(L->size(), 1u);
  EXPECT_TRUE(L->contains(7));
}

TEST_P(ListVariantTest, ForEachVisitsInListOrder) {
  auto L = make();
  std::vector<int64_t> Expected;
  for (int64_t I = 0; I != 50; ++I) {
    L->push_back(I * 3);
    Expected.push_back(I * 3);
  }
  std::vector<int64_t> Seen;
  L->forEach([&Seen](const int64_t &V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, Expected);
}

TEST_P(ListVariantTest, ReserveDoesNotChangeContents) {
  auto L = make();
  L->push_back(1);
  L->reserve(1000);
  EXPECT_EQ(L->size(), 1u);
  EXPECT_EQ(L->at(0), 1);
}

TEST_P(ListVariantTest, MemoryFootprintGrowsWithContents) {
  auto L = make();
  size_t Empty = L->memoryFootprint();
  EXPECT_GE(Empty, sizeof(void *));
  for (int64_t I = 0; I != 1000; ++I)
    L->push_back(I);
  EXPECT_GT(L->memoryFootprint(), Empty);
  // At least the payload bytes must be accounted for.
  EXPECT_GE(L->memoryFootprint(), 1000 * sizeof(int64_t));
}

TEST_P(ListVariantTest, VariantMatchesFactory) {
  auto L = make();
  EXPECT_EQ(L->variant(), GetParam());
}

TEST_P(ListVariantTest, DifferentialAgainstStdVector) {
  // Randomized op sequences; std::vector is the reference semantics.
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    SplitMix64 Rng(Seed);
    auto L = make();
    std::vector<int64_t> Ref;
    for (int Op = 0; Op != 600; ++Op) {
      switch (Rng.nextBelow(8)) {
      case 0:
      case 1: { // push_back (weighted up so lists grow)
        int64_t V = static_cast<int64_t>(Rng.nextBelow(40));
        L->push_back(V);
        Ref.push_back(V);
        break;
      }
      case 2: { // insertAt
        size_t Index = Rng.nextBelow(Ref.size() + 1);
        int64_t V = static_cast<int64_t>(Rng.nextBelow(40));
        L->insertAt(Index, V);
        Ref.insert(Ref.begin() + static_cast<ptrdiff_t>(Index), V);
        break;
      }
      case 3: { // removeAt
        if (Ref.empty())
          break;
        size_t Index = Rng.nextBelow(Ref.size());
        L->removeAt(Index);
        Ref.erase(Ref.begin() + static_cast<ptrdiff_t>(Index));
        break;
      }
      case 4: { // removeValue
        int64_t V = static_cast<int64_t>(Rng.nextBelow(40));
        bool RemovedRef = false;
        auto It = std::find(Ref.begin(), Ref.end(), V);
        if (It != Ref.end()) {
          Ref.erase(It);
          RemovedRef = true;
        }
        EXPECT_EQ(L->removeValue(V), RemovedRef);
        break;
      }
      case 5: { // set
        if (Ref.empty())
          break;
        size_t Index = Rng.nextBelow(Ref.size());
        int64_t V = static_cast<int64_t>(Rng.nextBelow(40));
        L->set(Index, V);
        Ref[Index] = V;
        break;
      }
      case 6: { // contains
        int64_t V = static_cast<int64_t>(Rng.nextBelow(40));
        EXPECT_EQ(L->contains(V),
                  std::find(Ref.begin(), Ref.end(), V) != Ref.end());
        break;
      }
      case 7: { // positional read
        if (Ref.empty())
          break;
        size_t Index = Rng.nextBelow(Ref.size());
        EXPECT_EQ(L->at(Index), Ref[Index]);
        break;
      }
      }
      ASSERT_EQ(L->size(), Ref.size());
    }
    // Final full-content comparison, in order.
    std::vector<int64_t> Snapshot;
    L->forEach([&Snapshot](const int64_t &V) { Snapshot.push_back(V); });
    EXPECT_EQ(Snapshot, Ref);
  }
}

TEST_P(ListVariantTest, LargeGrowthKeepsIntegrity) {
  auto L = make();
  constexpr int64_t N = 5000;
  for (int64_t I = 0; I != N; ++I)
    L->push_back(I);
  EXPECT_EQ(L->size(), static_cast<size_t>(N));
  EXPECT_EQ(L->at(0), 0);
  EXPECT_EQ(L->at(static_cast<size_t>(N) - 1), N - 1);
  EXPECT_TRUE(L->contains(N / 2));
  EXPECT_FALSE(L->contains(N));
  uint64_t Sum = 0;
  L->forEach([&Sum](const int64_t &V) { Sum += static_cast<uint64_t>(V); });
  EXPECT_EQ(Sum, static_cast<uint64_t>(N) * (N - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ListVariantTest, ::testing::ValuesIn(AllListVariants),
    [](const ::testing::TestParamInfo<ListVariant> &Info) {
      return listVariantName(Info.param);
    });

} // namespace

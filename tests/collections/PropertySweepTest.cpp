//===- PropertySweepTest.cpp - Parameterized property sweeps -----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style sweeps over (variant × size) combinations: invariants
/// that must hold for every variant at every scale — exactness of
/// size(), conservation of elements across churn, footprint sanity, and
/// snapshot/forEach agreement. Complements the randomized differential
/// suites with explicit scale coverage.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace cswitch;

namespace {

using SetSweepParam = std::tuple<SetVariant, size_t>;

class SetSweepTest : public ::testing::TestWithParam<SetSweepParam> {
protected:
  SetVariant variant() const { return std::get<0>(GetParam()); }
  size_t size() const { return std::get<1>(GetParam()); }
};

TEST_P(SetSweepTest, ExactMembershipAtScale) {
  auto S = makeSetImpl<int64_t>(variant());
  size_t N = size();
  // Insert evens; probe evens (hits) and odds (misses).
  for (size_t I = 0; I != N; ++I)
    ASSERT_TRUE(S->add(static_cast<int64_t>(I * 2)));
  ASSERT_EQ(S->size(), N);
  for (size_t I = 0; I != N; ++I) {
    EXPECT_TRUE(S->contains(static_cast<int64_t>(I * 2)));
    EXPECT_FALSE(S->contains(static_cast<int64_t>(I * 2 + 1)));
  }
}

TEST_P(SetSweepTest, ElementsConservedAcrossChurn) {
  SplitMix64 Rng(1234 + size());
  auto S = makeSetImpl<int64_t>(variant());
  size_t N = size();
  for (size_t I = 0; I != N; ++I)
    S->add(static_cast<int64_t>(I));
  // Churn half the elements out and back.
  for (size_t Round = 0; Round != 2; ++Round) {
    for (size_t I = 0; I < N; I += 2) {
      ASSERT_TRUE(S->remove(static_cast<int64_t>(I)));
      ASSERT_TRUE(S->add(static_cast<int64_t>(I)));
    }
  }
  ASSERT_EQ(S->size(), N);
  uint64_t Sum = 0;
  S->forEach([&Sum](const int64_t &V) { Sum += static_cast<uint64_t>(V); });
  EXPECT_EQ(Sum, static_cast<uint64_t>(N) * (N - 1) / 2);
}

TEST_P(SetSweepTest, FootprintAtLeastPayloadAndBounded) {
  auto S = makeSetImpl<int64_t>(variant());
  size_t N = size();
  for (size_t I = 0; I != N; ++I)
    S->add(static_cast<int64_t>(I));
  size_t Footprint = S->memoryFootprint();
  EXPECT_GE(Footprint, N * sizeof(int64_t));
  // No variant should need more than 64 bytes per 8-byte element plus a
  // fixed overhead — a loose sanity ceiling that catches accounting bugs.
  // The fixed overhead is 4 KB on top of what the empty instance already
  // owns (the 64 shard headers of a lock-striped set).
  size_t Empty = makeSetImpl<int64_t>(variant())->memoryFootprint();
  EXPECT_LE(Footprint, Empty + N * 64 + 4096);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SetSweepTest,
    ::testing::Combine(::testing::ValuesIn(AllSetVariants),
                       ::testing::Values<size_t>(3, 47, 1024)),
    [](const ::testing::TestParamInfo<SetSweepParam> &Info) {
      return std::string(setVariantName(std::get<0>(Info.param))) + "_" +
             std::to_string(std::get<1>(Info.param));
    });

using MapSweepParam = std::tuple<MapVariant, size_t>;

class MapSweepTest : public ::testing::TestWithParam<MapSweepParam> {
protected:
  MapVariant variant() const { return std::get<0>(GetParam()); }
  size_t size() const { return std::get<1>(GetParam()); }
};

TEST_P(MapSweepTest, ValuesSurviveOverwriteChurn) {
  auto M = makeMapImpl<int64_t, int64_t>(variant());
  size_t N = size();
  for (size_t I = 0; I != N; ++I)
    M->put(static_cast<int64_t>(I), -1);
  // Overwrite everything twice; the last write wins.
  for (int Round = 0; Round != 2; ++Round)
    for (size_t I = 0; I != N; ++I)
      M->put(static_cast<int64_t>(I),
             static_cast<int64_t>(I * (Round + 2)));
  ASSERT_EQ(M->size(), N);
  for (size_t I = 0; I != N; ++I) {
    const int64_t *V = M->get(static_cast<int64_t>(I));
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, static_cast<int64_t>(I * 3));
  }
}

TEST_P(MapSweepTest, ForEachVisitsEachMappingOnce) {
  auto M = makeMapImpl<int64_t, int64_t>(variant());
  size_t N = size();
  for (size_t I = 0; I != N; ++I)
    M->put(static_cast<int64_t>(I), 1);
  uint64_t Visits = 0;
  uint64_t KeySum = 0;
  M->forEach([&](const int64_t &K, const int64_t &V) {
    ++Visits;
    KeySum += static_cast<uint64_t>(K);
    EXPECT_EQ(V, 1);
  });
  EXPECT_EQ(Visits, N);
  EXPECT_EQ(KeySum, static_cast<uint64_t>(N) * (N - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapSweepTest,
    ::testing::Combine(::testing::ValuesIn(AllMapVariants),
                       ::testing::Values<size_t>(3, 47, 1024)),
    [](const ::testing::TestParamInfo<MapSweepParam> &Info) {
      return std::string(mapVariantName(std::get<0>(Info.param))) + "_" +
             std::to_string(std::get<1>(Info.param));
    });

using ListSweepParam = std::tuple<ListVariant, size_t>;

class ListSweepTest : public ::testing::TestWithParam<ListSweepParam> {
protected:
  ListVariant variant() const { return std::get<0>(GetParam()); }
  size_t size() const { return std::get<1>(GetParam()); }
};

TEST_P(ListSweepTest, PositionalIntegrityAfterInteriorChurn) {
  auto L = makeListImpl<int64_t>(variant());
  size_t N = size();
  for (size_t I = 0; I != N; ++I)
    L->push_back(static_cast<int64_t>(I));
  // Insert a sentinel in the middle and remove it again, repeatedly.
  for (int Round = 0; Round != 8; ++Round) {
    L->insertAt(N / 2, -7);
    ASSERT_EQ(L->at(N / 2), -7);
    L->removeAt(N / 2);
  }
  ASSERT_EQ(L->size(), N);
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(L->at(I), static_cast<int64_t>(I));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListSweepTest,
    ::testing::Combine(::testing::ValuesIn(AllListVariants),
                       ::testing::Values<size_t>(3, 47, 1024)),
    [](const ::testing::TestParamInfo<ListSweepParam> &Info) {
      return std::string(listVariantName(std::get<0>(Info.param))) + "_" +
             std::to_string(std::get<1>(Info.param));
    });

} // namespace

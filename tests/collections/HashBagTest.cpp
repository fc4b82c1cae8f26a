//===- HashBagTest.cpp - HashBag detail tests -------------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "collections/detail/HashBag.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

using namespace cswitch;
using cswitch::detail::HashBag;

namespace {

TEST(HashBag, CountsMultiplicity) {
  HashBag<int64_t> Bag;
  Bag.addOne(5);
  Bag.addOne(5);
  Bag.addOne(5);
  EXPECT_TRUE(Bag.contains(5));
  EXPECT_EQ(Bag.distinctSize(), 1u);
  EXPECT_TRUE(Bag.removeOne(5));
  EXPECT_TRUE(Bag.contains(5)); // two occurrences left.
  EXPECT_TRUE(Bag.removeOne(5));
  EXPECT_TRUE(Bag.removeOne(5));
  EXPECT_FALSE(Bag.contains(5));
  EXPECT_FALSE(Bag.removeOne(5));
  EXPECT_EQ(Bag.distinctSize(), 0u);
}

TEST(HashBag, EmptyBagBehaves) {
  HashBag<int64_t> Bag;
  EXPECT_FALSE(Bag.contains(1));
  EXPECT_FALSE(Bag.removeOne(1));
  EXPECT_EQ(Bag.distinctSize(), 0u);
  EXPECT_EQ(Bag.memoryFootprint(), 0u);
}

TEST(HashBag, GrowsAcrossRehashes) {
  HashBag<int64_t> Bag;
  for (int64_t I = 0; I != 2000; ++I)
    Bag.addOne(I);
  EXPECT_EQ(Bag.distinctSize(), 2000u);
  for (int64_t I = 0; I != 2000; ++I)
    EXPECT_TRUE(Bag.contains(I));
  EXPECT_FALSE(Bag.contains(2000));
  EXPECT_GT(Bag.memoryFootprint(), 2000 * sizeof(int64_t));
}

TEST(HashBag, ClearReleasesEverything) {
  int64_t LiveBefore = MemoryTracker::liveBytes();
  HashBag<int64_t> Bag;
  for (int64_t I = 0; I != 100; ++I)
    Bag.addOne(I);
  Bag.clear();
  EXPECT_EQ(Bag.distinctSize(), 0u);
  EXPECT_FALSE(Bag.contains(50));
  EXPECT_EQ(MemoryTracker::liveBytes(), LiveBefore);
  // Usable after clear.
  Bag.addOne(7);
  EXPECT_TRUE(Bag.contains(7));
}

TEST(HashBag, DifferentialAgainstUnorderedMapOfCounts) {
  SplitMix64 Rng(77);
  HashBag<int64_t> Bag;
  std::unordered_map<int64_t, int> Ref;
  for (int Op = 0; Op != 5000; ++Op) {
    int64_t V = static_cast<int64_t>(Rng.nextBelow(64));
    if (Op % 2 == 1) {
      Bag.addOne(V);
      ++Ref[V];
    } else {
      bool Removed = Bag.removeOne(V);
      auto It = Ref.find(V);
      if (It == Ref.end()) {
        EXPECT_FALSE(Removed);
      } else {
        EXPECT_TRUE(Removed);
        if (--It->second == 0)
          Ref.erase(It);
      }
    }
    if (Op % 512 == 0) {
      for (int64_t K = 0; K != 64; ++K)
        ASSERT_EQ(Bag.contains(K), Ref.count(K) > 0);
      ASSERT_EQ(Bag.distinctSize(), Ref.size());
    }
  }
}

TEST(HashBag, DifferentialThroughGrowthAndTombstonePurge) {
  // 4096 keys take the table from 8 to 8192 slots, at its load limit.
  // The churn after that alternates removing and adding one occurrence:
  // a value whose last occurrence goes leaves a tombstone, so the table
  // is rehashed at its capacity to purge them.
  constexpr int64_t Keys = 4096;
  SplitMix64 Rng(2024);
  HashBag<int64_t> Bag;
  std::unordered_map<int64_t, int> Ref;
  auto Check = [&] {
    for (int64_t K = 0; K != Keys; ++K)
      ASSERT_EQ(Bag.contains(K), Ref.count(K) > 0) << "key " << K;
    ASSERT_EQ(Bag.distinctSize(), Ref.size());
  };

  std::vector<int64_t> Order(Keys);
  for (int64_t K = 0; K != Keys; ++K)
    Order[K] = K;
  std::vector<size_t> Capacities;
  for (int64_t K : shuffled(Rng, Order)) {
    Bag.addOne(K);
    ++Ref[K];
    if (Capacities.empty() || Capacities.back() != Bag.capacity())
      Capacities.push_back(Bag.capacity());
  }
  EXPECT_EQ(Capacities.size(), 11u); // 8, 16, ..., 8192.
  EXPECT_EQ(Bag.capacity(), 8192u);
  Check();

  size_t Purges = 0;
  for (int Op = 0; Op != 60000; ++Op) {
    int64_t V = static_cast<int64_t>(Rng.nextBelow(Keys));
    size_t CapacityBefore = Bag.capacity();
    AllocationScope Scope;
    if (Op % 2 == 1) {
      Bag.addOne(V);
      ++Ref[V];
    } else {
      bool Removed = Bag.removeOne(V);
      auto It = Ref.find(V);
      ASSERT_EQ(Removed, It != Ref.end());
      if (It != Ref.end() && --It->second == 0)
        Ref.erase(It);
    }
    if (Scope.allocatedInScope() && Bag.capacity() == CapacityBefore)
      ++Purges;
    if (Op % 4096 == 0)
      Check();
  }
  EXPECT_GT(Purges, 0u);
  EXPECT_LE(Bag.capacity(), 16384u);
  Check();

  for (auto &[K, Count] : Ref)
    for (int I = 0; I != Count; ++I)
      ASSERT_TRUE(Bag.removeOne(K));
  Ref.clear();
  Check();
}

TEST(HashBag, MultiplicitiesSurviveEveryRehash) {
  // Key K holds K % 4 + 1 occurrences before the growth that follows it
  // and the explicit rehash at the end move it.
  HashBag<int64_t> Bag;
  for (int64_t K = 0; K != 1000; ++K)
    for (int64_t I = 0; I != K % 4 + 1; ++I)
      Bag.addOne(K);
  Bag.reserve(Bag.capacity() * 2);
  EXPECT_EQ(Bag.distinctSize(), 1000u);
  for (int64_t K = 0; K != 1000; ++K) {
    for (int64_t I = 0; I != K % 4 + 1; ++I) {
      ASSERT_TRUE(Bag.contains(K)) << "key " << K;
      ASSERT_TRUE(Bag.removeOne(K)) << "key " << K;
    }
    EXPECT_FALSE(Bag.contains(K));
    EXPECT_FALSE(Bag.removeOne(K));
  }
  EXPECT_EQ(Bag.distinctSize(), 0u);
}

TEST(HashBag, FootprintIsTheLiveBytes) {
  int64_t LiveBefore = MemoryTracker::liveBytes();
  {
    HashBag<int64_t> Bag;
    for (int64_t K = 0; K != 3000; ++K) {
      Bag.addOne(K % 2000);
      ASSERT_EQ(MemoryTracker::liveBytes() - LiveBefore,
                static_cast<int64_t>(Bag.memoryFootprint()));
    }
    // One slot array: key, 4-byte count and control byte per slot, and
    // the 15 cloned control bytes.
    EXPECT_EQ(Bag.memoryFootprint(),
              Bag.capacity() * (sizeof(int64_t) + 4 + 1) + 15);
    for (int64_t K = 0; K != 2000; K += 2)
      Bag.removeOne(K);
    EXPECT_EQ(MemoryTracker::liveBytes() - LiveBefore,
              static_cast<int64_t>(Bag.memoryFootprint()));
    Bag.reserve(10000);
    EXPECT_EQ(MemoryTracker::liveBytes() - LiveBefore,
              static_cast<int64_t>(Bag.memoryFootprint()));
  }
  EXPECT_EQ(MemoryTracker::liveBytes(), LiveBefore);
}

TEST(HashBag, StringKeysThroughRehashEraseAndClear) {
  // Long keys live on the heap, so a key that is leaked, freed twice or
  // read after a move shows under the sanitizers.
  auto Key = [](int I) {
    return "a-key-too-long-for-small-string-storage-" + std::to_string(I);
  };
  HashBag<std::string> Bag;
  for (int I = 0; I != 300; ++I) {
    Bag.addOne(Key(I));
    if (I % 3 == 0)
      Bag.addOne(Key(I));
  }
  EXPECT_EQ(Bag.distinctSize(), 300u);
  for (int I = 0; I != 300; I += 2)
    EXPECT_TRUE(Bag.removeOne(Key(I)));
  for (int I = 0; I != 300; ++I)
    EXPECT_EQ(Bag.contains(Key(I)), I % 2 == 1 || I % 3 == 0) << I;
  EXPECT_FALSE(Bag.contains(Key(300)));
  Bag.reserve(Bag.capacity() * 4);
  for (int I = 0; I != 300; ++I)
    EXPECT_EQ(Bag.contains(Key(I)), I % 2 == 1 || I % 3 == 0) << I;
  Bag.clear();
  EXPECT_EQ(Bag.distinctSize(), 0u);
  EXPECT_FALSE(Bag.contains(Key(1)));
  Bag.addOne(Key(7));
  EXPECT_TRUE(Bag.contains(Key(7)));
}

} // namespace

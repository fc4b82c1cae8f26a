//===- ConcurrentCollectionsTest.cpp - Concurrent tier tests ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the concurrent collection tier (DESIGN.md §11): linearizable
/// operation smoke over the thread-safe implementations, snapshot
/// isolation of the copy-on-write list, shard-count edges, the
/// contention sketch, the contention cost dimension, and the
/// Concurrency mode helpers. The multi-threaded tests double as the
/// TSan surface of the tier (run in CI under -fsanitize=thread).
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "collections/concurrent/ShardedHashMap.h"
#include "collections/concurrent/Sharding.h"
#include "collections/concurrent/SnapshotList.h"
#include "collections/concurrent/StripedHashSet.h"
#include "core/Switch.h"
#include "model/DefaultModel.h"
#include "profile/ContentionSketch.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

//===--------------------------------------------------------------------===//
// Linearizable operation smoke
//===--------------------------------------------------------------------===//

TEST(ConcurrentCollections, ShardedHashMapKeepsEveryDisjointWrite) {
  auto Map = makeMapImpl<int64_t, int64_t>(MapVariant::ShardedHashMap);
  constexpr int Threads = 4;
  constexpr int64_t PerThread = 4000;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Map, T] {
      for (int64_t I = 0; I != PerThread; ++I) {
        int64_t Key = T * PerThread + I;
        Map->put(Key, Key * 2);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Map->size(), static_cast<size_t>(Threads) * PerThread);
  for (int64_t Key = 0; Key != Threads * PerThread; ++Key) {
    const int64_t *Value = Map->get(Key);
    ASSERT_NE(Value, nullptr) << "lost key " << Key;
    EXPECT_EQ(*Value, Key * 2);
  }
}

TEST(ConcurrentCollections, ShardedHashMapMixedChurnStaysConsistent) {
  auto Map = makeMapImpl<int64_t, int64_t>(MapVariant::ShardedHashMap);
  std::atomic<int64_t> NetPuts{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&Map, &NetPuts, T] {
      SplitMix64 Rng(static_cast<uint64_t>(T) + 11);
      for (int I = 0; I != 6000; ++I) {
        int64_t Key = static_cast<int64_t>(Rng.nextBelow(512));
        if (Rng.nextBool(0.6)) {
          // put() returns true only on a fresh insertion.
          if (Map->put(Key, Key))
            NetPuts.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (Map->remove(Key))
            NetPuts.fetch_sub(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(static_cast<int64_t>(Map->size()),
            NetPuts.load(std::memory_order_relaxed));
}

TEST(ConcurrentCollections, StripedHashSetChurnStaysConsistent) {
  auto Set = makeSetImpl<int64_t>(SetVariant::StripedHashSet);
  std::atomic<int64_t> NetAdds{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&Set, &NetAdds, T] {
      SplitMix64 Rng(static_cast<uint64_t>(T) + 3);
      for (int I = 0; I != 6000; ++I) {
        int64_t V = static_cast<int64_t>(Rng.nextBelow(256));
        if (Rng.nextBool(0.55)) {
          if (Set->add(V))
            NetAdds.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (Set->remove(V))
            NetAdds.fetch_sub(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(static_cast<int64_t>(Set->size()),
            NetAdds.load(std::memory_order_relaxed));
}

TEST(ConcurrentCollections, MutexTierVariantsSurviveConcurrentUse) {
  auto List = makeListImpl<int64_t>(ListVariant::MutexList);
  auto Set = makeSetImpl<int64_t>(SetVariant::MutexHashSet);
  auto Map = makeMapImpl<int64_t, int64_t>(MapVariant::MutexHashMap);
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&, T] {
      for (int64_t I = 0; I != 2000; ++I) {
        int64_t V = T * 2000 + I;
        List->push_back(V);
        Set->add(V);
        Map->put(V, V);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(List->size(), 8000u);
  EXPECT_EQ(Set->size(), 8000u);
  EXPECT_EQ(Map->size(), 8000u);
}

//===--------------------------------------------------------------------===//
// Snapshot isolation
//===--------------------------------------------------------------------===//

TEST(ConcurrentCollections, SnapshotListIterationSeesConsistentPrefix) {
  auto List = makeListImpl<int64_t>(ListVariant::SnapshotList);
  // One writer appends 0, 1, 2, ...; any snapshot a traversal takes is
  // therefore exactly the prefix 0..k-1. A torn traversal would show a
  // gap, a reordering, or an element appearing mid-sweep.
  std::atomic<bool> Stop{false};
  std::thread Writer([&List, &Stop] {
    int64_t V = 0;
    while (!Stop.load(std::memory_order_relaxed) && V < 60000)
      List->push_back(V++);
  });
  for (int Sweep = 0; Sweep != 400; ++Sweep) {
    int64_t Expected = 0;
    bool Consistent = true;
    List->forEach([&Expected, &Consistent](const int64_t &V) {
      Consistent = Consistent && V == Expected;
      ++Expected;
    });
    EXPECT_TRUE(Consistent) << "torn snapshot at sweep " << Sweep;
  }
  Stop.store(true);
  Writer.join();
}

//===--------------------------------------------------------------------===//
// Shard-count edges
//===--------------------------------------------------------------------===//

TEST(ConcurrentCollections, ResolveShardCountRoundsAndClamps) {
  EXPECT_EQ(concurrent::resolveShardCount(1), 1u);
  EXPECT_EQ(concurrent::resolveShardCount(2), 2u);
  EXPECT_EQ(concurrent::resolveShardCount(3), 4u);
  EXPECT_EQ(concurrent::resolveShardCount(64), 64u);
  EXPECT_EQ(concurrent::resolveShardCount(1000), concurrent::MaxShards);
  EXPECT_EQ(concurrent::resolveShardCount(0), concurrent::MaxShards)
      << "auto stripes for contention, not for the cpu count";
}

TEST(ConcurrentCollections, SmallReserveAllocatesNoShard) {
  // Below one first allocation per shard, a hint would only fill shards
  // no key reaches; at or above it every shard is presized.
  ShardedHashMapImpl<int64_t, int64_t> Map(concurrent::MaxShards);
  StripedHashSetImpl<int64_t> Set(concurrent::MaxShards);
  size_t EmptyMap = Map.memoryFootprint();
  size_t EmptySet = Set.memoryFootprint();
  Map.reserve(10);
  Set.reserve(10);
  EXPECT_EQ(Map.memoryFootprint(), EmptyMap);
  EXPECT_EQ(Set.memoryFootprint(), EmptySet);
  Map.reserve(concurrent::MaxShards * 8);
  Set.reserve(concurrent::MaxShards * 8);
  EXPECT_GT(Map.memoryFootprint(), EmptyMap);
  EXPECT_GT(Set.memoryFootprint(), EmptySet);
}

TEST(ConcurrentCollections, ShardEdgesOneAndMaxBehaveIdentically) {
  for (size_t Shards : {size_t(1), concurrent::MaxShards}) {
    ShardedHashMapImpl<int64_t, int64_t> Map(Shards);
    StripedHashSetImpl<int64_t> Set(Shards);
    ASSERT_EQ(Map.shardCount(), Shards);
    ASSERT_EQ(Set.shardCount(), Shards);
    std::vector<std::thread> Workers;
    for (int T = 0; T != 4; ++T) {
      Workers.emplace_back([&, T] {
        for (int64_t I = 0; I != 2000; ++I) {
          int64_t V = T * 2000 + I;
          Map.put(V, -V);
          Set.add(V);
        }
      });
    }
    for (std::thread &W : Workers)
      W.join();
    EXPECT_EQ(Map.size(), 8000u) << Shards << " shards";
    EXPECT_EQ(Set.size(), 8000u) << Shards << " shards";
    for (int64_t V = 0; V < 8000; V += 97) {
      const int64_t *Found = Map.get(V);
      ASSERT_NE(Found, nullptr) << Shards << " shards, key " << V;
      EXPECT_EQ(*Found, -V);
      EXPECT_TRUE(Set.contains(V)) << Shards << " shards, value " << V;
    }
  }
}

//===--------------------------------------------------------------------===//
// Contention sketch
//===--------------------------------------------------------------------===//

TEST(ContentionSketch, EstimatesDistinctThreads) {
  ContentionSketch Sketch;
  EXPECT_EQ(Sketch.estimateThreads(), 0.0);
  for (int I = 0; I != 300; ++I)
    Sketch.observe();
  EXPECT_GE(Sketch.operations(), 300u);
  double Solo = Sketch.estimateThreads();
  EXPECT_GE(Solo, 1.0);
  EXPECT_LT(Solo, 1.6);

  Sketch.reset();
  EXPECT_EQ(Sketch.operations(), 0u);
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T)
    Workers.emplace_back([&Sketch] {
      for (int I = 0; I != 300; ++I)
        Sketch.observe();
    });
  for (std::thread &W : Workers)
    W.join();
  // Linear counting over 64 buckets: 4 distinct thread ids estimate
  // close to 4, lower only when ids collide into one bucket.
  double Crowd = Sketch.estimateThreads();
  EXPECT_GE(Crowd, 2.0);
  EXPECT_LE(Crowd, 8.0);
}

//===--------------------------------------------------------------------===//
// Contention cost dimension
//===--------------------------------------------------------------------===//

/// Per-op cost of \p V under the analysis fold: time at \p Size plus the
/// contention polynomial at \p Threads (what analyzeRound adds when the
/// context is contended).
double contendedCost(const PerformanceModel &Model, MapVariant V,
                     OperationKind Op, double Size, double Threads) {
  VariantId Id = VariantId::of(V);
  return Model.operationCost(Id, Op, CostDimension::Time, Size) +
         Model.operationCost(Id, Op, CostDimension::Contention, Threads);
}

TEST(ContentionModel, MutexWinsSequentiallyShardedWinsContended) {
  PerformanceModel Model = defaultPerformanceModel();
  // The session-server read-heavy mix: 80% lookups, 20% inserts.
  auto MixCost = [&](MapVariant V, double Threads) {
    return 0.8 * contendedCost(Model, V, OperationKind::Contains, 1024,
                               Threads) +
           0.2 * contendedCost(Model, V, OperationKind::Populate, 1024,
                               Threads);
  };
  // One thread: the striping overhead is pure waste, the mutex strategy
  // must win by enough that the 0.8 ratio rule keeps it.
  EXPECT_LT(MixCost(MapVariant::MutexHashMap, 1.0),
            0.8 * MixCost(MapVariant::ShardedHashMap, 1.0));
  // Two or more threads: the convoying mutex loses to striping, again
  // decisively enough for the ratio rule to switch.
  for (double Threads : {2.0, 4.0, 8.0, 16.0}) {
    EXPECT_LT(MixCost(MapVariant::ShardedHashMap, Threads),
              0.8 * MixCost(MapVariant::MutexHashMap, Threads))
        << Threads << " threads";
  }
}

TEST(ContentionModel, AugmentBackfillsConcurrentRows) {
  // A model calibrated before the concurrent tier existed (or by the
  // sequential-only ModelBuilder): no concurrent variants, no
  // contention cells.
  PerformanceModel Model;
  Model.setCost(VariantId::of(MapVariant::ChainedHashMap),
                OperationKind::Contains, CostDimension::Time,
                Polynomial({5.0}));
  ASSERT_FALSE(Model.hasVariant(VariantId::of(MapVariant::MutexHashMap)));
  augmentConcurrentCoverage(Model);
  for (MapVariant V : {MapVariant::MutexHashMap, MapVariant::ShardedHashMap})
    EXPECT_TRUE(Model.hasVariant(VariantId::of(V))) << mapVariantName(V);
  // The measured cell is untouched; the grafted contention polynomial
  // charges nothing at one thread and grows from two on.
  EXPECT_DOUBLE_EQ(
      Model.operationCost(VariantId::of(MapVariant::ChainedHashMap),
                          OperationKind::Contains, CostDimension::Time, 64),
      5.0);
  double AtOne = Model.operationCost(VariantId::of(MapVariant::MutexHashMap),
                                     OperationKind::Contains,
                                     CostDimension::Contention, 1.0);
  double AtFour = Model.operationCost(VariantId::of(MapVariant::MutexHashMap),
                                      OperationKind::Contains,
                                      CostDimension::Contention, 4.0);
  EXPECT_DOUBLE_EQ(AtOne, 0.0);
  EXPECT_GT(AtFour, 0.0);
}

//===--------------------------------------------------------------------===//
// Concurrency mode helpers
//===--------------------------------------------------------------------===//

TEST(ConcurrencyTier, CandidateMasksSelectTheRightPools) {
  for (AbstractionKind Kind :
       {AbstractionKind::List, AbstractionKind::Set, AbstractionKind::Map}) {
    unsigned Mutex = concurrentInitialVariant(Kind, Concurrency::Mutex);
    unsigned Sharded = concurrentInitialVariant(Kind, Concurrency::Sharded);
    EXPECT_EQ(Mutex, firstConcurrentVariant(Kind));
    EXPECT_EQ(Sharded, Mutex + 1);
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::Mutex),
              1u << Mutex);
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::Sharded),
              1u << Sharded);
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::Auto),
              (1u << Mutex) | (1u << Sharded));
    // The sequential pool is exactly the variants below the tier, and
    // Auto starts on the mutex strategy (cheapest when uncontended).
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::None),
              (1u << Mutex) - 1);
    EXPECT_EQ(concurrentInitialVariant(Kind, Concurrency::Auto), Mutex);
    for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
      EXPECT_EQ(isConcurrentVariant(Kind, V), V >= Mutex);
  }
}

TEST(ConcurrencyTier, AutoContextSwitchesToShardedUnderContention) {
  ContextOptions Opts = ContextOptions{}
                            .windowSize(4)
                            .finishedRatio(0.5)
                            .logEvents(false)
                            .concurrency(Concurrency::Auto);
  auto Ctx = Switch::makeContext<Map<int64_t, int64_t>>(
      "test:contended-cache", MapVariant::ChainedHashMap,
      SelectionRule::timeRule(), Opts);
  // Auto coerces the sequential initial variant into the tier.
  EXPECT_EQ(static_cast<MapVariant>(Ctx->currentVariantIndex()),
            MapVariant::MutexHashMap);
  for (int Generation = 0; Generation != 4; ++Generation) {
    {
      auto Shared = Ctx->createMap();
      std::vector<std::thread> Workers;
      for (int T = 0; T != 4; ++T) {
        Workers.emplace_back([&Shared, T] {
          for (int64_t I = 0; I != 2000; ++I) {
            int64_t Key = T * 2000 + I;
            Shared.put(Key, Key);
            int64_t Out = 0;
            Shared.lookup(Key, Out);
          }
        });
      }
      for (std::thread &W : Workers)
        W.join();
    } // Retire the generation so its profile publishes.
    Ctx->evaluate();
  }
  EXPECT_GT(Ctx->contendedThreads(), 1.0);
  EXPECT_GE(Ctx->switchCount(), 1u);
  EXPECT_EQ(static_cast<MapVariant>(Ctx->currentVariantIndex()),
            MapVariant::ShardedHashMap);
}

} // namespace

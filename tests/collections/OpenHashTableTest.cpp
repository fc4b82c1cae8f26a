//===- OpenHashTableTest.cpp - Group-probed table tests -------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Differential tests of detail::OpenHashSetTable and OpenHashMapTable at
// both load factors against std::unordered_set/map, plus the layout
// invariants: capacity follows the growth policy, the footprint formula,
// control-byte groups, and tags independent of the shard bits.
//
//===----------------------------------------------------------------------===//

#include "collections/concurrent/Sharding.h"
#include "collections/detail/OpenHashTable.h"
#include "support/MemoryTracker.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace cswitch;
using cswitch::detail::OpenHashMapTable;
using cswitch::detail::OpenHashSetTable;

namespace {

/// Capacity the growth policy gives a table whose largest insert call
/// saw \p Peak - 1 elements: the smallest power of two >= 8 with
/// Peak <= capacity * Num/Den (0 before the first insert).
size_t policyCapacity(size_t Peak, unsigned Num, unsigned Den) {
  if (Peak == 0)
    return 0;
  size_t Cap = 8;
  while (Cap * Num < Peak * Den)
    Cap *= 2;
  return Cap;
}

/// Cap·(Slot + 1) + 15 bytes, the documented table footprint.
template <typename Table>
size_t expectedFootprint(const Table &T, size_t Slot) {
  return T.capacity() ? T.capacity() * (Slot + 1) + detail::ClonedCtrlBytes
                      : 0;
}

std::string longString(uint64_t N) {
  // Longer than the small-string buffer, so every key owns heap memory.
  return "key-with-a-heap-allocated-body-" + std::to_string(N);
}

/// Seeded insert/erase/re-insert/lookup churn on a set, checked op by op
/// against std::unordered_set, including capacity and footprint. With a
/// nonzero \p ResetEvery, every ResetEvery ops the table is emptied with
/// its storage kept (the reset a spare implementation gets before reuse)
/// and the reference with clear().
template <typename T, unsigned Num, unsigned Den, typename MakeKey>
void churnSet(uint64_t Seed, uint64_t KeyRange, size_t Ops, MakeKey Make,
              size_t ResetEvery) {
  int64_t LiveBefore = MemoryTracker::liveBytes();
  {
    OpenHashSetTable<T, Num, Den> Table;
    std::unordered_set<T> Ref;
    SplitMix64 Rng(Seed);
    size_t Peak = 0;
    for (size_t Op = 0; Op != Ops; ++Op) {
      T Key = Make(Rng.nextBelow(KeyRange));
      switch (Rng.nextBelow(5)) {
      case 0:
      case 1:
        Peak = std::max(Peak, Ref.size() + 1);
        ASSERT_EQ(Table.insert(Key), Ref.insert(Key).second);
        break;
      case 2:
      case 3:
        ASSERT_EQ(Table.erase(Key), Ref.erase(Key) == 1);
        break;
      default:
        ASSERT_EQ(Table.contains(Key), Ref.count(Key) == 1);
      }
      if (ResetEvery != 0 && Op % ResetEvery == ResetEvery - 1) {
        size_t Capacity = Table.capacity();
        Table.clearKeepingStorage();
        Ref.clear();
        ASSERT_EQ(Table.capacity(), Capacity);
      }
      ASSERT_EQ(Table.size(), Ref.size());
      ASSERT_EQ(Table.capacity(), policyCapacity(Peak, Num, Den));
      ASSERT_EQ(Table.memoryFootprint(), expectedFootprint(Table, sizeof(T)));
    }
    std::unordered_set<T> Seen;
    Table.forEach([&](const T &Key) { EXPECT_TRUE(Seen.insert(Key).second); });
    EXPECT_EQ(Seen, Ref);
  }
  EXPECT_EQ(MemoryTracker::liveBytes(), LiveBefore);
}

/// The same churn on a map, against std::unordered_map.
template <typename K, typename V, unsigned Num, unsigned Den,
          typename MakeKey, typename MakeValue>
void churnMap(uint64_t Seed, uint64_t KeyRange, size_t Ops, MakeKey Make,
              MakeValue MakeVal, size_t ResetEvery) {
  int64_t LiveBefore = MemoryTracker::liveBytes();
  {
    OpenHashMapTable<K, V, Num, Den> Table;
    std::unordered_map<K, V> Ref;
    SplitMix64 Rng(Seed);
    size_t Peak = 0;
    for (size_t Op = 0; Op != Ops; ++Op) {
      K Key = Make(Rng.nextBelow(KeyRange));
      switch (Rng.nextBelow(6)) {
      case 0:
      case 1: {
        V Value = MakeVal(Rng.next());
        Peak = std::max(Peak, Ref.size() + 1);
        bool New = Ref.find(Key) == Ref.end();
        Ref[Key] = Value;
        ASSERT_EQ(Table.insertOrAssign(Key, Value), New);
        break;
      }
      case 2:
      case 3:
        ASSERT_EQ(Table.erase(Key), Ref.erase(Key) == 1);
        break;
      case 4:
        if (V *Found = Table.findMutable(Key)) {
          ASSERT_EQ(Ref.count(Key), 1u);
          *Found = Ref[Key] = MakeVal(Rng.next());
        } else {
          ASSERT_EQ(Ref.count(Key), 0u);
        }
        break;
      default: {
        const V *Found = Table.find(Key);
        auto It = Ref.find(Key);
        ASSERT_EQ(Found != nullptr, It != Ref.end());
        if (Found) {
          ASSERT_EQ(*Found, It->second);
        }
      }
      }
      if (ResetEvery != 0 && Op % ResetEvery == ResetEvery - 1) {
        size_t Capacity = Table.capacity();
        Table.clearKeepingStorage();
        Ref.clear();
        ASSERT_EQ(Table.capacity(), Capacity);
      }
      ASSERT_EQ(Table.size(), Ref.size());
      ASSERT_EQ(Table.capacity(), policyCapacity(Peak, Num, Den));
      ASSERT_EQ(Table.memoryFootprint(),
                expectedFootprint(Table, sizeof(K) + sizeof(V)));
    }
    std::unordered_map<K, V> Seen;
    Table.forEach([&](const K &Key, const V &Value) {
      EXPECT_TRUE(Seen.emplace(Key, Value).second);
    });
    EXPECT_EQ(Seen, Ref);
  }
  EXPECT_EQ(MemoryTracker::liveBytes(), LiveBefore);
}

int64_t intKey(uint64_t N) { return static_cast<int64_t>(N); }

/// Reset intervals every churn runs with: never, and a keep-storage
/// reset every 2503 ops, so each segment regrows from the kept capacity
/// with no tombstones left over from the one before.
constexpr size_t ResetIntervals[] = {0, 2503};

TEST(OpenHashTable, SetChurnMatchesUnorderedSet) {
  for (size_t Reset : ResetIntervals)
    for (uint64_t Range : {6u, 40u, 700u, 5000u}) {
      churnSet<int64_t, 1, 2>(Range, Range, 20000, intKey, Reset);
      churnSet<int64_t, 7, 8>(Range + 1, Range, 20000, intKey, Reset);
    }
}

TEST(OpenHashTable, MapChurnMatchesUnorderedMap) {
  for (size_t Reset : ResetIntervals)
    for (uint64_t Range : {6u, 40u, 700u, 5000u}) {
      churnMap<int64_t, int64_t, 1, 2>(Range, Range, 20000, intKey, intKey,
                                       Reset);
      churnMap<int64_t, int64_t, 7, 8>(Range + 1, Range, 20000, intKey,
                                       intKey, Reset);
    }
}

TEST(OpenHashTable, StringKeysAndValuesBalanceConstruction) {
  for (size_t Reset : ResetIntervals)
    for (uint64_t Range : {6u, 300u}) {
      churnSet<std::string, 1, 2>(Range, Range, 6000, longString, Reset);
      churnSet<std::string, 7, 8>(Range, Range, 6000, longString, Reset);
      churnMap<std::string, std::string, 1, 2>(Range, Range, 6000,
                                               longString, longString, Reset);
      churnMap<std::string, std::string, 7, 8>(Range, Range, 6000,
                                               longString, longString, Reset);
    }
}

/// The first \p N keys >= 0 whose home slot in a capacity-8 table is
/// \p Home.
std::vector<int64_t> keysHomedAt(size_t Home, size_t N) {
  std::vector<int64_t> Keys;
  for (int64_t K = 0; Keys.size() != N; ++K)
    if ((DefaultHash<int64_t>{}(K) & 7) == Home)
      Keys.push_back(K);
  return Keys;
}

/// A string key that counts its live copies.
struct LiveString {
  std::string S;
  static inline int64_t Live = 0;
  explicit LiveString(std::string Value) : S(std::move(Value)) { ++Live; }
  LiveString(const LiveString &Other) : S(Other.S) { ++Live; }
  LiveString(LiveString &&Other) noexcept : S(std::move(Other.S)) { ++Live; }
  ~LiveString() { --Live; }
  bool operator==(const LiveString &Other) const { return S == Other.S; }
};

struct LiveStringHash {
  uint64_t operator()(const LiveString &Key) const {
    return DefaultHash<std::string>{}(Key.S);
  }
};

TEST(OpenHashTable, KeepStorageResetDestroysKeysAndTombstones) {
  int64_t LiveBefore = LiveString::Live;
  {
    OpenHashSetTable<LiveString, 7, 8, LiveStringHash> Table;
    for (uint64_t N = 0; N != 100; ++N)
      ASSERT_TRUE(Table.insert(LiveString(longString(N))));
    for (uint64_t N = 0; N != 50; ++N)
      ASSERT_TRUE(Table.erase(LiveString(longString(N))));
    size_t Capacity = Table.capacity();
    Table.clearKeepingStorage();
    EXPECT_EQ(LiveString::Live, LiveBefore);
    EXPECT_EQ(Table.size(), 0u);
    EXPECT_EQ(Table.capacity(), Capacity);
    EXPECT_FALSE(Table.contains(LiveString(longString(60))));
    // The tombstones went too: the whole load budget of the kept storage
    // takes new keys without a rehash.
    AllocationScope Scope;
    for (uint64_t N = 1000; N != 1000 + Capacity * 7 / 8; ++N)
      ASSERT_TRUE(Table.insert(LiveString(longString(N))));
    EXPECT_EQ(Scope.allocatedInScope(), 0u);
    EXPECT_EQ(Table.capacity(), Capacity);
  }
  EXPECT_EQ(LiveString::Live, LiveBefore);
}

TEST(OpenHashTable, SmallerThanAGroupWrapsAround) {
  // Capacity 8 holds up to 7 keys at 7/8. Keys homed at the last slot
  // fill slots 7, 0, 1, ..., so all but one are found only through the
  // control bytes cloned past the end.
  OpenHashSetTable<int64_t, 7, 8> Set;
  std::vector<int64_t> Keys = keysHomedAt(7, 7);
  for (int64_t K : Keys)
    EXPECT_TRUE(Set.insert(K));
  EXPECT_EQ(Set.capacity(), 8u);
  for (int64_t K : Keys) {
    EXPECT_TRUE(Set.contains(K));
    EXPECT_FALSE(Set.insert(K));
  }
  for (int64_t K : keysHomedAt(7, 20))
    EXPECT_EQ(Set.contains(K), K <= Keys.back());
  for (int64_t K = 1; K != 200; ++K)
    EXPECT_FALSE(Set.contains(-K));
  size_t Visited = 0;
  Set.forEach([&](const int64_t &) { ++Visited; });
  EXPECT_EQ(Visited, 7u);
  EXPECT_TRUE(Set.erase(Keys[0]));
  for (size_t I = 1; I != Keys.size(); ++I)
    EXPECT_TRUE(Set.contains(Keys[I]));

  OpenHashMapTable<int64_t, int64_t, 1, 2> Map;
  Keys = keysHomedAt(6, 4);
  for (int64_t K : Keys)
    EXPECT_TRUE(Map.insertOrAssign(K, K + 10));
  EXPECT_EQ(Map.capacity(), 8u);
  for (int64_t K : Keys) {
    ASSERT_NE(Map.find(K), nullptr);
    EXPECT_EQ(*Map.find(K), K + 10);
  }
  EXPECT_EQ(Map.find(-1), nullptr);
}

TEST(OpenHashTable, ReinsertReusesItsTombstone) {
  OpenHashSetTable<int64_t, 7, 8> Set;
  for (int64_t K = 0; K != 10; ++K)
    Set.insert(K);
  ASSERT_EQ(Set.capacity(), 16u);
  AllocationScope Scope;
  for (int Round = 0; Round != 100; ++Round) {
    int64_t K = Round % 10;
    ASSERT_TRUE(Set.erase(K));
    ASSERT_TRUE(Set.insert(K));
  }
  // Each re-insert took back the slot its erase left, so full+tombstone
  // never grew and no rehash ran.
  EXPECT_EQ(Scope.allocatedInScope(), 0u);
  EXPECT_EQ(Set.size(), 10u);
}

TEST(OpenHashTable, TombstonesPurgeAtTheSameCapacity) {
  OpenHashMapTable<int64_t, int64_t, 7, 8> Map;
  for (int64_t K = 0; K != 10; ++K)
    Map.insertOrAssign(K, K);
  ASSERT_EQ(Map.capacity(), 16u);
  size_t Footprint = Map.memoryFootprint();
  AllocationScope Scope;
  // Replacing old keys with fresh ones piles up tombstones until the
  // 7/8 limit forces a rehash, which keeps the capacity.
  for (int64_t K = 10; K != 60; ++K) {
    ASSERT_TRUE(Map.erase(K - 10));
    ASSERT_TRUE(Map.insertOrAssign(K, -K));
  }
  EXPECT_EQ(Map.capacity(), 16u);
  EXPECT_EQ(Map.memoryFootprint(), Footprint);
  EXPECT_GT(Scope.allocatedInScope(), 0u);
  EXPECT_EQ(Scope.allocatedInScope() % Footprint, 0u);
  for (int64_t K = 0; K != 60; ++K) {
    const int64_t *Found = Map.find(K);
    if (K < 50) {
      EXPECT_EQ(Found, nullptr);
    } else {
      ASSERT_NE(Found, nullptr);
      EXPECT_EQ(*Found, -K);
    }
  }
}

TEST(OpenHashTable, ClearReleasesStorageAndAllowsReuse) {
  int64_t LiveBefore = MemoryTracker::liveBytes();
  OpenHashMapTable<std::string, std::string, 1, 2> Map;
  for (uint64_t K = 0; K != 100; ++K)
    Map.insertOrAssign(longString(K), longString(K + 1));
  EXPECT_GT(MemoryTracker::liveBytes(), LiveBefore);
  Map.clear();
  EXPECT_EQ(Map.size(), 0u);
  EXPECT_EQ(Map.capacity(), 0u);
  EXPECT_EQ(Map.memoryFootprint(), 0u);
  EXPECT_EQ(MemoryTracker::liveBytes(), LiveBefore);
  EXPECT_EQ(Map.find(longString(3)), nullptr);
  EXPECT_FALSE(Map.erase(longString(3)));
  EXPECT_TRUE(Map.insertOrAssign(longString(3), "x"));
  EXPECT_EQ(Map.capacity(), 8u);
  ASSERT_NE(Map.find(longString(3)), nullptr);
  EXPECT_EQ(*Map.find(longString(3)), "x");
  EXPECT_EQ(MemoryTracker::liveBytes() - LiveBefore,
            static_cast<int64_t>(Map.memoryFootprint()));
}

template <typename Table, typename InsertFn>
void checkGrowthPolicy(unsigned Num, unsigned Den, size_t Slot,
                       InsertFn Insert) {
  Table Grown;
  for (size_t N = 1; N <= 4096; ++N) {
    Insert(Grown, static_cast<int64_t>(N));
    ASSERT_EQ(Grown.capacity(), policyCapacity(N, Num, Den)) << N;
    ASSERT_EQ(Grown.memoryFootprint(), expectedFootprint(Grown, Slot)) << N;
    Table Reserved;
    Reserved.reserve(N);
    ASSERT_EQ(Reserved.capacity(), policyCapacity(N, Num, Den)) << N;
  }
}

TEST(OpenHashTable, CapacityFollowsTheGrowthPolicyAtEverySize) {
  auto SetInsert = [](auto &T, int64_t K) { T.insert(K); };
  auto MapInsert = [](auto &T, int64_t K) { T.insertOrAssign(K, K); };
  checkGrowthPolicy<OpenHashSetTable<int64_t, 1, 2>>(1, 2, 8, SetInsert);
  checkGrowthPolicy<OpenHashSetTable<int64_t, 7, 8>>(7, 8, 8, SetInsert);
  checkGrowthPolicy<OpenHashMapTable<int64_t, int32_t, 1, 2>>(1, 2, 12,
                                                              MapInsert);
  checkGrowthPolicy<OpenHashMapTable<int64_t, int64_t, 7, 8>>(7, 8, 16,
                                                              MapInsert);
}

/// Per-byte reference for a group's masks.
uint32_t referenceMask(const int8_t *Ctrl, bool (*Pred)(int8_t, int8_t),
                       int8_t Tag) {
  uint32_t Mask = 0;
  for (size_t I = 0; I != detail::GroupWidth; ++I)
    if (Pred(Ctrl[I], Tag))
      Mask |= 1u << I;
  return Mask;
}

template <typename G> void checkGroup(const int8_t *Ctrl) {
  auto Equal = [](int8_t C, int8_t T) { return C == T; };
  auto Free = [](int8_t C, int8_t) { return C < 0; };
  G Group(Ctrl);
  for (int Tag = 0; Tag != 128; ++Tag)
    ASSERT_EQ(Group.match(static_cast<int8_t>(Tag)),
              referenceMask(Ctrl, Equal, static_cast<int8_t>(Tag)));
  ASSERT_EQ(Group.matchEmpty(), referenceMask(Ctrl, Equal, detail::CtrlEmpty));
  ASSERT_EQ(Group.matchFree(), referenceMask(Ctrl, Free, 0));
}

TEST(OpenHashTable, GroupsAgreeOnRandomControlWords) {
  SplitMix64 Rng(13);
  int8_t Ctrl[detail::GroupWidth];
  for (int Word = 0; Word != 2000; ++Word) {
    for (int8_t &C : Ctrl) {
      uint64_t Kind = Rng.nextBelow(4);
      C = Kind == 0   ? detail::CtrlEmpty
          : Kind == 1 ? detail::CtrlDeleted
                      : static_cast<int8_t>(Rng.nextBelow(128));
    }
    checkGroup<detail::ScalarGroup>(Ctrl);
#ifdef __SSE2__
    checkGroup<detail::SseGroup>(Ctrl);
    detail::ScalarGroup Scalar(Ctrl);
    detail::SseGroup Sse(Ctrl);
    ASSERT_EQ(Scalar.matchFree(), Sse.matchFree());
    ASSERT_EQ(Scalar.matchEmpty(), Sse.matchEmpty());
#endif
  }
}

/// Key whose hash is given explicitly and whose comparisons are counted.
struct CountedKey {
  uint64_t Hash;
  uint64_t Id;
  static inline size_t Comparisons = 0;
  bool operator==(const CountedKey &Other) const {
    ++Comparisons;
    return Id == Other.Id;
  }
};

struct CountedKeyHash {
  uint64_t operator()(const CountedKey &Key) const { return Key.Hash; }
};

template <typename Table, typename InsertFn, typename LookupFn>
void checkTagsSplitACluster(InsertFn Insert, LookupFn Lookup) {
  // 200 keys agree on hash bits 0-37: one shard and one home slot.
  constexpr uint64_t LowBits = (uint64_t(1) << 38) - 1;
  constexpr uint64_t Common = 0x2A5A5A5A5Aull & LowBits;
  SplitMix64 Rng(29);
  auto MakeKey = [&](uint64_t Id) {
    return CountedKey{(Rng.next() << 38) | Common, Id};
  };
  Table T;
  for (uint64_t Id = 0; Id != 200; ++Id) {
    CountedKey Key = MakeKey(Id);
    ASSERT_EQ(concurrent::shardOfHash(Key.Hash, 64),
              concurrent::shardOfHash(Common, 64));
    Insert(T, Key);
  }
  for (uint64_t Id = 1000; Id != 1050; ++Id) {
    CountedKey Missing = MakeKey(Id);
    CountedKey::Comparisons = 0;
    EXPECT_FALSE(Lookup(T, Missing));
    // A shard-constant tag would compare against all 200 keys.
    EXPECT_LE(CountedKey::Comparisons, 8u) << Id;
  }
}

TEST(OpenHashTable, TagsAreIndependentOfShardAndSlotBits) {
  auto SetInsert = [](auto &T, const CountedKey &K) { T.insert(K); };
  auto SetLookup = [](auto &T, const CountedKey &K) { return T.contains(K); };
  auto MapInsert = [](auto &T, const CountedKey &K) {
    T.insertOrAssign(K, K.Id);
  };
  auto MapLookup = [](auto &T, const CountedKey &K) {
    return T.find(K) != nullptr;
  };
  checkTagsSplitACluster<OpenHashSetTable<CountedKey, 1, 2, CountedKeyHash>>(
      SetInsert, SetLookup);
  checkTagsSplitACluster<OpenHashSetTable<CountedKey, 7, 8, CountedKeyHash>>(
      SetInsert, SetLookup);
  checkTagsSplitACluster<
      OpenHashMapTable<CountedKey, uint64_t, 1, 2, CountedKeyHash>>(
      MapInsert, MapLookup);
  checkTagsSplitACluster<
      OpenHashMapTable<CountedKey, uint64_t, 7, 8, CountedKeyHash>>(
      MapInsert, MapLookup);
}

} // namespace

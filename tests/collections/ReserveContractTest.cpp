//===- ReserveContractTest.cpp - reserve() covers the whole variant ----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract allocation contexts rely on when they presize every new
/// instance at the site's capacity hint: after reserve(N), inserting N
/// distinct keys allocates nothing but the per-element nodes of
/// node-based variants (adaptive variants add one hash representation,
/// built at migration and already sized for N); reserve(N) followed by
/// N inserts never allocates more bytes than the N inserts alone; and a
/// reservation no larger than a variant's first allocation changes
/// nothing. Lock-striped variants keep the contract per shard.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "collections/concurrent/Sharding.h"
#include "collections/detail/HashBag.h"
#include "collections/detail/OpenHashTable.h"
#include "support/MemoryTracker.h"

#include <gtest/gtest.h>

#include <functional>

using namespace cswitch;

namespace {

constexpr size_t Sizes[] = {0, 1, 3, 9, 100, 1000};

/// What inserting N keys into a variant reserved for N may allocate.
enum class Growth {
  /// Nothing: all storage was allocated by reserve().
  Flat,
  /// One node per element (chained, linked and tree variants).
  PerNode,
  /// Nothing below the adaptive threshold; above it, the one hash
  /// representation migration builds (given by MigrationBytes).
  Migrates,
  /// Per shard of a lock-striped variant: each shard is reserved for its
  /// even share of N, or not at all while that share is below the
  /// in-shard table's first allocation, and then grows like a plain
  /// table with the keys routed to it (given by ShardBytes).
  PerShard,
  /// Not held to the contract; see excludedBecause().
  Excluded,
};

/// The variants the contract does not cover, and why.
const char *excludedBecause(const std::string &Name) {
  if (Name == "SnapshotList")
    return "every write copies the whole array";
  return nullptr;
}

Growth growthOf(ListVariant V) {
  switch (V) {
  case ListVariant::ArrayList:
  case ListVariant::HashArrayList:
  case ListVariant::MutexList:
    return Growth::Flat;
  case ListVariant::LinkedList:
    return Growth::PerNode;
  case ListVariant::AdaptiveList:
    return Growth::Migrates;
  case ListVariant::SnapshotList:
    return Growth::Excluded;
  }
  return Growth::Excluded;
}

Growth growthOf(SetVariant V) {
  switch (V) {
  case SetVariant::OpenHashSet:
  case SetVariant::ArraySet:
  case SetVariant::CompactHashSet:
  case SetVariant::SortedArraySet:
  case SetVariant::MutexHashSet:
    return Growth::Flat;
  case SetVariant::ChainedHashSet:
  case SetVariant::LinkedHashSet:
  case SetVariant::TreeSet:
    return Growth::PerNode;
  case SetVariant::AdaptiveSet:
    return Growth::Migrates;
  case SetVariant::StripedHashSet:
    return Growth::PerShard;
  }
  return Growth::Excluded;
}

Growth growthOf(MapVariant V) {
  switch (V) {
  case MapVariant::OpenHashMap:
  case MapVariant::ArrayMap:
  case MapVariant::CompactHashMap:
  case MapVariant::SortedArrayMap:
  case MapVariant::MutexHashMap:
    return Growth::Flat;
  case MapVariant::ChainedHashMap:
  case MapVariant::LinkedHashMap:
  case MapVariant::TreeMap:
    return Growth::PerNode;
  case MapVariant::AdaptiveMap:
    return Growth::Migrates;
  case MapVariant::ShardedHashMap:
    return Growth::PerShard;
  }
  return Growth::Excluded;
}

/// One variant behind a uniform make / reserve / insert surface.
struct Subject {
  std::string Name;
  Growth Kind;
  /// Adaptive threshold (Growth::Migrates only).
  size_t Threshold = 0;
  /// Bytes of the hash representation migration builds for N elements
  /// (Growth::Migrates only).
  std::function<uint64_t(size_t)> MigrationBytes;
  /// Bytes one shard's table allocates for its inserts after reserve()
  /// (arguments as Run's; Growth::PerShard only).
  std::function<uint64_t(size_t Reserve, size_t Inserts)> ShardBytes;
  /// Makes an instance, calls reserve(\p Reserve) unless it is
  /// NoReserve, inserts the keys 0..Inserts-1, and returns the bytes the
  /// inserts alone allocated.
  std::function<uint64_t(size_t Reserve, size_t Inserts)> Run;
};

constexpr size_t NoReserve = SIZE_MAX;

template <typename ImplT, typename MakeFn, typename InsertFn>
std::function<uint64_t(size_t, size_t)> runner(MakeFn Make,
                                               InsertFn Insert) {
  return [Make, Insert](size_t Reserve, size_t Inserts) {
    std::unique_ptr<ImplT> Impl = Make();
    if (Reserve != NoReserve)
      Impl->reserve(Reserve);
    AllocationScope Scope;
    for (size_t K = 0; K != Inserts; ++K)
      Insert(*Impl, static_cast<int64_t>(K));
    return Scope.allocatedInScope();
  };
}

/// Bytes a hash bag reserved for \p N allocates while N distinct values
/// go in: exactly its one table, which reserve() allocated.
uint64_t hashBagBytes(size_t N) {
  AllocationScope Scope;
  detail::HashBag<int64_t> Bag;
  Bag.reserve(N);
  uint64_t Reserved = Scope.allocatedInScope();
  for (size_t K = 0; K != N; ++K)
    Bag.addOne(static_cast<int64_t>(K));
  EXPECT_EQ(Scope.allocatedInScope(), Reserved) << "N = " << N;
  EXPECT_EQ(Reserved, Bag.memoryFootprint()) << "N = " << N;
  return Scope.allocatedInScope();
}

template <typename TableT> uint64_t openTableBytes(size_t N) {
  AllocationScope Scope;
  TableT Table;
  Table.reserve(N);
  return Scope.allocatedInScope();
}

/// Bytes a fresh \p TableT, reserved for \p Reserve elements, allocates
/// while \p Inserts distinct keys go in.
template <typename TableT>
uint64_t tableInsertBytes(size_t Reserve, size_t Inserts) {
  TableT Table;
  Table.reserve(Reserve);
  AllocationScope Scope;
  for (size_t K = 0; K != Inserts; ++K) {
    if constexpr (requires { Table.insert(int64_t()); })
      Table.insert(static_cast<int64_t>(K));
    else
      Table.insertOrAssign(static_cast<int64_t>(K), 0);
  }
  return Scope.allocatedInScope();
}

/// What inserting the keys 0..N-1 into a lock-striped variant reserved
/// for N may allocate: each shard's table growth past its reservation.
uint64_t perShardBytes(const Subject &S, size_t N) {
  size_t Shards = concurrent::configuredShardCount();
  size_t Share = (N + Shards - 1) / Shards;
  size_t Reserve =
      Share < detail::OpenHashSetTable<int64_t, 1, 2>::InitialCapacity
          ? 0
          : Share;
  std::vector<size_t> Keys(Shards);
  for (size_t K = 0; K != N; ++K)
    ++Keys[concurrent::shardOfHash(
        DefaultHash<int64_t>{}(static_cast<int64_t>(K)), Shards)];
  uint64_t Total = 0;
  for (size_t InShard : Keys)
    Total += S.ShardBytes(Reserve, InShard);
  return Total;
}

std::vector<Subject> allSubjects() {
  AdaptiveThresholds T = AdaptiveConfig::global().thresholds();
  std::vector<Subject> Out;
  for (ListVariant V : AllListVariants)
    Out.push_back({listVariantName(V), growthOf(V), T.List, hashBagBytes,
                   nullptr,
                   runner<ListImpl<int64_t>>(
                       [V] { return makeListImpl<int64_t>(V); },
                       [](ListImpl<int64_t> &L, int64_t K) {
                         L.push_back(K);
                       })});
  for (SetVariant V : AllSetVariants)
    Out.push_back(
        {setVariantName(V), growthOf(V), T.Set,
         openTableBytes<detail::OpenHashSetTable<int64_t, 1, 2>>,
         tableInsertBytes<detail::OpenHashSetTable<int64_t, 1, 2>>,
         runner<SetImpl<int64_t>>([V] { return makeSetImpl<int64_t>(V); },
                                  [](SetImpl<int64_t> &S, int64_t K) {
                                    S.add(K);
                                  })});
  for (MapVariant V : AllMapVariants)
    Out.push_back(
        {mapVariantName(V), growthOf(V), T.Map,
         openTableBytes<detail::OpenHashMapTable<int64_t, int64_t, 1, 2>>,
         tableInsertBytes<detail::OpenHashMapTable<int64_t, int64_t, 1, 2>>,
         runner<MapImpl<int64_t, int64_t>>(
             [V] { return makeMapImpl<int64_t, int64_t>(V); },
             [](MapImpl<int64_t, int64_t> &M, int64_t K) { M.put(K, K); })});
  return Out;
}

TEST(ReserveContract, ExclusionsAreExactlyTheNamedVariants) {
  for (const Subject &S : allSubjects())
    EXPECT_EQ(S.Kind == Growth::Excluded, excludedBecause(S.Name) != nullptr)
        << S.Name;
}

TEST(ReserveContract, InsertsAfterReserveAllocateOnlyNodes) {
  for (const Subject &S : allSubjects()) {
    if (S.Kind == Growth::Excluded)
      continue;
    SCOPED_TRACE(S.Name);
    // The bytes of one node: what the single insert into an instance
    // reserved for one element allocates.
    uint64_t NodeBytes = S.Run(1, 1);
    if (S.Kind == Growth::PerNode || S.Kind == Growth::PerShard)
      EXPECT_GT(NodeBytes, 0u);
    else
      EXPECT_EQ(NodeBytes, 0u);
    for (size_t N : Sizes) {
      uint64_t Expected = 0;
      if (S.Kind == Growth::PerNode)
        Expected = N * NodeBytes;
      else if (S.Kind == Growth::Migrates && N > S.Threshold)
        Expected = S.MigrationBytes(N);
      else if (S.Kind == Growth::PerShard)
        Expected = perShardBytes(S, N);
      EXPECT_EQ(S.Run(N, N), Expected) << "N = " << N;
    }
  }
}

TEST(ReserveContract, ReserveNeverCostsMoreThanGrowing) {
  for (const Subject &S : allSubjects()) {
    if (S.Kind == Growth::Excluded)
      continue;
    SCOPED_TRACE(S.Name);
    for (size_t N : Sizes) {
      // Whole lifetimes, so the reserve() allocation itself counts.
      AllocationScope Reserved;
      S.Run(N, N);
      uint64_t WithReserve = Reserved.allocatedInScope();
      AllocationScope Grown;
      S.Run(NoReserve, N);
      uint64_t WithoutReserve = Grown.allocatedInScope();
      EXPECT_LE(WithReserve, WithoutReserve) << "N = " << N;
    }
  }
}

TEST(ReserveContract, SmallReservationChangesNothing) {
  // A reservation no larger than the variant's own first allocation
  // must leave every later allocation as it was, however far the
  // instance grows past it: a small hint never costs a regrow.
  // MutexList grows from one slot, like std::vector, so it has no first
  // allocation to clamp to and is left out.
  for (const Subject &S : allSubjects()) {
    if (S.Kind == Growth::Excluded || S.Name == "MutexList")
      continue;
    SCOPED_TRACE(S.Name);
    for (size_t N : {1, 3}) {
      for (size_t Inserts : {9, 100}) {
        AllocationScope Reserved;
        S.Run(N, Inserts);
        uint64_t WithReserve = Reserved.allocatedInScope();
        AllocationScope Grown;
        S.Run(NoReserve, Inserts);
        EXPECT_EQ(WithReserve, Grown.allocatedInScope())
            << "reserve(" << N << ") then " << Inserts << " inserts";
      }
    }
  }
}

TEST(ReserveContract, AdaptiveVariantsKeepAReservationUntilMigration) {
  // A reservation above the threshold must not migrate early, and must
  // still size the hash representation when migration happens.
  auto Set = makeSetImpl<int64_t>(SetVariant::AdaptiveSet);
  auto *Adaptive = static_cast<AdaptiveSetImpl<int64_t> *>(Set.get());
  size_t Threshold = Adaptive->threshold();
  Set->reserve(1000);
  EXPECT_FALSE(Adaptive->hasMigrated());
  for (int64_t K = 0; K != static_cast<int64_t>(Threshold) + 1; ++K)
    Set->add(K);
  ASSERT_TRUE(Adaptive->hasMigrated());
  AllocationScope Scope;
  for (int64_t K = static_cast<int64_t>(Threshold) + 1; K != 1000; ++K)
    Set->add(K);
  EXPECT_EQ(Scope.allocatedInScope(), 0u);

  // Once migrated, the list's reserve() sizes its hash index too.
  auto List = makeListImpl<int64_t>(ListVariant::AdaptiveList);
  auto *AList = static_cast<AdaptiveListImpl<int64_t> *>(List.get());
  for (int64_t K = 0; !AList->hasMigrated(); ++K)
    List->push_back(K);
  size_t Migrated = List->size();
  List->reserve(1000);
  AllocationScope Rest;
  for (size_t K = Migrated; K != 1000; ++K)
    List->push_back(static_cast<int64_t>(K));
  EXPECT_EQ(Rest.allocatedInScope(), 0u);
}

} // namespace

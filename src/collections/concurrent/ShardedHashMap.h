//===- ShardedHashMap.h - Lock-striped hash map variant ---------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-striped strategy of the concurrent map tier (DESIGN.md §11):
/// a power-of-two array of independently locked open-addressing shards,
/// ConcurrentHashMap-style. Keys are routed by the top bits of the same
/// hash the in-shard tables consume from the bottom, so threads hitting
/// different keys contend with probability ~1/shards. The size is a
/// lock-free atomic maintained by the mutating operations (the facade
/// reads it after every mutation).
///
/// See MutexHashMap.h for the tier-wide thread-safety contract.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_SHARDEDHASHMAP_H
#define CSWITCH_COLLECTIONS_CONCURRENT_SHARDEDHASHMAP_H

#include "collections/MapInterface.h"
#include "collections/concurrent/Sharding.h"
#include "collections/detail/OpenHashTable.h"
#include "support/Topology.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace cswitch {

/// Lock-striped open-addressing map (MapVariant::ShardedHashMap).
template <typename K, typename V>
class ShardedHashMapImpl : public MapImpl<K, V> {
public:
  /// \p Shards = 0 uses the process-wide ContentionPolicy knob; any
  /// value is rounded to a power of two in [1, concurrent::MaxShards].
  explicit ShardedHashMapImpl(size_t Shards = 0)
      : NumShards(Shards ? concurrent::resolveShardCount(Shards)
                         : concurrent::configuredShardCount()),
        Lanes(std::make_unique<Shard[]>(NumShards)) {}

  bool put(const K &Key, const V &Value) override {
    Shard &S = shardOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    bool Inserted = S.Table.insertOrAssign(Key, Value);
    if (Inserted)
      Count.fetch_add(1, std::memory_order_relaxed);
    return Inserted;
  }

  const V *get(const K &Key) const override {
    Shard &S = shardOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return S.Table.find(Key);
  }

  V *getMutable(const K &Key) override {
    Shard &S = shardOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return S.Table.findMutable(Key);
  }

  bool lookup(const K &Key, V &Out) const override {
    Shard &S = shardOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    const V *Found = S.Table.find(Key);
    if (!Found)
      return false;
    Out = *Found;
    return true;
  }

  bool containsKey(const K &Key) const override {
    Shard &S = shardOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return S.Table.find(Key) != nullptr;
  }

  bool remove(const K &Key) override {
    Shard &S = shardOf(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    bool Erased = S.Table.erase(Key);
    if (Erased)
      Count.fetch_sub(1, std::memory_order_relaxed);
    return Erased;
  }

  size_t size() const override {
    return Count.load(std::memory_order_relaxed);
  }

  void clear() override {
    // Shard-at-a-time: concurrent writers of other shards proceed; the
    // count is decremented per shard so it never goes stale negative.
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<std::mutex> Lock(Lanes[I].Mutex);
      Count.fetch_sub(Lanes[I].Table.size(), std::memory_order_relaxed);
      Lanes[I].Table.clear();
    }
  }

  /// Shard-at-a-time traversal: each shard is consistent under its own
  /// lock; mutations of not-yet-visited shards may or may not be seen.
  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<std::mutex> Lock(Lanes[I].Mutex);
      Lanes[I].Table.forEach(Fn);
    }
  }

  /// Presizes every shard for its even share of \p N, but only once
  /// that share reaches the in-shard table's first allocation: a
  /// smaller share would allocate shards no key reaches, for no growth
  /// saved in the rest.
  void reserve(size_t N) override {
    size_t PerShard = (N + NumShards - 1) / NumShards;
    if (PerShard < ShardTable::InitialCapacity)
      return;
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<std::mutex> Lock(Lanes[I].Mutex);
      Lanes[I].Table.reserve(PerShard);
    }
  }

  size_t memoryFootprint() const override {
    size_t Total = sizeof(*this) + NumShards * sizeof(Shard);
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<std::mutex> Lock(Lanes[I].Mutex);
      Total += Lanes[I].Table.memoryFootprint();
    }
    return Total;
  }

  MapVariant variant() const override { return MapVariant::ShardedHashMap; }

  /// Number of lock stripes (for tests and footprint accounting).
  size_t shardCount() const { return NumShards; }

private:
  using ShardTable = detail::OpenHashMapTable<K, V, 1, 2>;

  /// One lock stripe: the mutex and its table share a padded block so
  /// two shards never share a cache line.
  struct alignas(CacheLineBytes) Shard {
    mutable std::mutex Mutex;
    ShardTable Table;
  };

  Shard &shardOf(const K &Key) const {
    return Lanes[concurrent::shardOfHash(DefaultHash<K>{}(Key), NumShards)];
  }

  const size_t NumShards;
  std::unique_ptr<Shard[]> Lanes;
  std::atomic<size_t> Count{0};
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_SHARDEDHASHMAP_H

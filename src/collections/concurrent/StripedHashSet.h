//===- StripedHashSet.h - Lock-striped hash set variant ---------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-striped strategy of the concurrent set tier: the set analogue of
/// ShardedHashMap (see its header for the striping rationale and
/// MutexHashMap.h for the tier-wide thread-safety contract).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_STRIPEDHASHSET_H
#define CSWITCH_COLLECTIONS_CONCURRENT_STRIPEDHASHSET_H

#include "collections/SetInterface.h"
#include "collections/concurrent/Sharding.h"
#include "collections/detail/OpenHashTable.h"
#include "support/Topology.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace cswitch {

/// Lock-striped open-addressing set (SetVariant::StripedHashSet).
template <typename T> class StripedHashSetImpl : public SetImpl<T> {
public:
  /// \p Shards = 0 uses the process-wide ContentionPolicy knob; any
  /// value is rounded to a power of two in [1, concurrent::MaxShards].
  explicit StripedHashSetImpl(size_t Shards = 0)
      : NumShards(Shards ? concurrent::resolveShardCount(Shards)
                         : concurrent::configuredShardCount()),
        Lanes(std::make_unique<Shard[]>(NumShards)) {}

  bool add(const T &Value) override {
    Shard &S = shardOf(Value);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    bool Inserted = S.Table.insert(Value);
    if (Inserted)
      Count.fetch_add(1, std::memory_order_relaxed);
    return Inserted;
  }

  bool contains(const T &Value) const override {
    Shard &S = shardOf(Value);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return S.Table.contains(Value);
  }

  bool remove(const T &Value) override {
    Shard &S = shardOf(Value);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    bool Erased = S.Table.erase(Value);
    if (Erased)
      Count.fetch_sub(1, std::memory_order_relaxed);
    return Erased;
  }

  size_t size() const override {
    return Count.load(std::memory_order_relaxed);
  }

  void clear() override {
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<std::mutex> Lock(Lanes[I].Mutex);
      Count.fetch_sub(Lanes[I].Table.size(), std::memory_order_relaxed);
      Lanes[I].Table.clear();
    }
  }

  /// Shard-at-a-time traversal (see ShardedHashMap::forEach).
  void forEach(FunctionRef<void(const T &)> Fn) const override {
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

  SetVariant variant() const override { return SetVariant::StripedHashSet; }

  /// Number of lock stripes (for tests and footprint accounting).
  size_t shardCount() const { return NumShards; }

private:
  using ShardTable = detail::OpenHashSetTable<T, 1, 2>;

  struct alignas(CacheLineBytes) Shard {
    mutable std::mutex Mutex;
    ShardTable Table;
  };

  Shard &shardOf(const T &Value) const {
    return Lanes[concurrent::shardOfHash(DefaultHash<T>{}(Value),
                                         NumShards)];
  }

  const size_t NumShards;
  std::unique_ptr<Shard[]> Lanes;
  std::atomic<size_t> Count{0};
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_STRIPEDHASHSET_H

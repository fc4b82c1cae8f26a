//===- MutexHashMap.h - Mutex-serialized hash map variant -------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutex-serialized strategy of the concurrent map tier (DESIGN.md
/// §11): one lock over the same open-addressing table the sequential
/// OpenHashMap uses. Cheapest concurrent strategy at low contention —
/// one uncontended lock acquisition per operation — and the strategy the
/// engine abandons first when the contention signal rises.
///
/// Thread-safety contract (shared by every concurrent variant): all
/// mutating and value-copying operations are safe to call from any
/// thread. The pointer-returning MapImpl operations (get/getMutable)
/// escape the lock and are only safe while no other thread mutates; use
/// lookup() for a concurrent read.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_MUTEXHASHMAP_H
#define CSWITCH_COLLECTIONS_CONCURRENT_MUTEXHASHMAP_H

#include "collections/MapInterface.h"
#include "collections/detail/OpenHashTable.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace cswitch {

/// Mutex-serialized open-addressing map (MapVariant::MutexHashMap).
template <typename K, typename V>
class MutexHashMapImpl : public MapImpl<K, V> {
public:
  bool put(const K &Key, const V &Value) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    bool Inserted = Table.insertOrAssign(Key, Value);
    if (Inserted)
      Count.fetch_add(1, std::memory_order_relaxed);
    return Inserted;
  }

  const V *get(const K &Key) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Table.find(Key);
  }

  V *getMutable(const K &Key) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Table.findMutable(Key);
  }

  bool lookup(const K &Key, V &Out) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    const V *Found = Table.find(Key);
    if (!Found)
      return false;
    Out = *Found;
    return true;
  }

  bool containsKey(const K &Key) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Table.find(Key) != nullptr;
  }

  bool remove(const K &Key) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    bool Erased = Table.erase(Key);
    if (Erased)
      Count.fetch_sub(1, std::memory_order_relaxed);
    return Erased;
  }

  /// Lock-free: the facade reads the size after every mutation, so the
  /// count lives outside the lock.
  size_t size() const override {
    return Count.load(std::memory_order_relaxed);
  }

  void clear() override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Table.clear();
    Count.store(0, std::memory_order_relaxed);
  }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Table.forEach(Fn);
  }

  void reserve(size_t N, size_t = 0) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Table.reserve(N);
  }

  size_t memoryFootprint() const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    return sizeof(*this) + Table.memoryFootprint();
  }

  MapVariant variant() const override { return MapVariant::MutexHashMap; }

private:
  mutable std::mutex Mutex;
  detail::OpenHashMapTable<K, V, 1, 2> Table;
  std::atomic<size_t> Count{0};
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_MUTEXHASHMAP_H

//===- MutexHashSet.h - Mutex-serialized hash set variant -------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutex-serialized strategy of the concurrent set tier: one lock over
/// the sequential OpenHashSet's table. See MutexHashMap.h for the
/// tier-wide thread-safety contract.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_MUTEXHASHSET_H
#define CSWITCH_COLLECTIONS_CONCURRENT_MUTEXHASHSET_H

#include "collections/SetInterface.h"
#include "collections/detail/OpenHashTable.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace cswitch {

/// Mutex-serialized open-addressing set (SetVariant::MutexHashSet).
template <typename T> class MutexHashSetImpl : public SetImpl<T> {
public:
  bool add(const T &Value) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    bool Inserted = Table.insert(Value);
    if (Inserted)
      Count.fetch_add(1, std::memory_order_relaxed);
    return Inserted;
  }

  bool contains(const T &Value) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Table.contains(Value);
  }

  bool remove(const T &Value) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    bool Erased = Table.erase(Value);
    if (Erased)
      Count.fetch_sub(1, std::memory_order_relaxed);
    return Erased;
  }

  size_t size() const override {
    return Count.load(std::memory_order_relaxed);
  }

  void clear() override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Table.clear();
    Count.store(0, std::memory_order_relaxed);
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
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

  SetVariant variant() const override { return SetVariant::MutexHashSet; }

private:
  mutable std::mutex Mutex;
  detail::OpenHashSetTable<T, 1, 2> Table;
  std::atomic<size_t> Count{0};
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_MUTEXHASHSET_H

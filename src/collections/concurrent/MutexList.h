//===- MutexList.h - Mutex-serialized list variant --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutex-serialized strategy of the concurrent list tier: one lock over
/// the sequential ArrayList's contiguous storage. See MutexHashMap.h for
/// the tier-wide thread-safety contract; positional reads (at) return
/// references that are only valid until the next mutation.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_MUTEXLIST_H
#define CSWITCH_COLLECTIONS_CONCURRENT_MUTEXLIST_H

#include "collections/ListInterface.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <vector>

namespace cswitch {

/// Mutex-serialized array list (ListVariant::MutexList).
template <typename T> class MutexListImpl : public ListImpl<T> {
public:
  void push_back(const T &Value) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Data.push_back(Value);
    Count.store(Data.size(), std::memory_order_relaxed);
  }

  void insertAt(size_t Index, const T &Value) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(Index <= Data.size() && "insert index out of range");
    Data.insert(Data.begin() + static_cast<ptrdiff_t>(Index), Value);
    Count.store(Data.size(), std::memory_order_relaxed);
  }

  void removeAt(size_t Index) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(Index < Data.size() && "remove index out of range");
    Data.erase(Data.begin() + static_cast<ptrdiff_t>(Index));
    Count.store(Data.size(), std::memory_order_relaxed);
  }

  bool removeValue(const T &Value) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = std::find(Data.begin(), Data.end(), Value);
    if (It == Data.end())
      return false;
    Data.erase(It);
    Count.store(Data.size(), std::memory_order_relaxed);
    return true;
  }

  const T &at(size_t Index) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(Index < Data.size() && "index out of range");
    return Data[Index];
  }

  void set(size_t Index, const T &Value) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(Index < Data.size() && "index out of range");
    Data[Index] = Value;
  }

  bool contains(const T &Value) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    return std::find(Data.begin(), Data.end(), Value) != Data.end();
  }

  size_t size() const override {
    return Count.load(std::memory_order_relaxed);
  }

  void clear() override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Data.clear();
    Data.shrink_to_fit();
    Count.store(0, std::memory_order_relaxed);
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const T &Value : Data)
      Fn(Value);
  }

  void reserve(size_t N) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Data.reserve(N);
  }

  size_t memoryFootprint() const override {
    std::lock_guard<std::mutex> Lock(Mutex);
    return sizeof(*this) + Data.capacity() * sizeof(T);
  }

  ListVariant variant() const override { return ListVariant::MutexList; }

private:
  mutable std::mutex Mutex;
  std::vector<T, CountingAllocator<T>> Data;
  std::atomic<size_t> Count{0};
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_MUTEXLIST_H

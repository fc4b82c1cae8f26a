//===- ArrayMap.h - Array-backed map variant ---------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array-backed map variant (paper §3.1.2: "an ArrayMap is memory
/// efficient but has a linear time for access, as no structure is used to
/// index the keys"). Parallel key/value arrays with insertion-ordered
/// iteration; the memory-optimal choice for the many sub-20-element maps
/// real applications allocate (the lusearch finding in §5.2).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ARRAYMAP_H
#define CSWITCH_COLLECTIONS_ARRAYMAP_H

#include "collections/MapInterface.h"
#include "support/MemoryTracker.h"

#include <cassert>
#include <vector>

namespace cswitch {

/// Parallel-array MapImpl with insertion-ordered iteration.
template <typename K, typename V>
class ArrayMapImpl final : public MapImpl<K, V> {
public:
  ArrayMapImpl() = default;

  bool put(const K &Key, const V &Value) override {
    for (size_t I = 0, E = Keys.size(); I != E; ++I) {
      if (Keys[I] == Key) {
        Vals[I] = Value;
        return false;
      }
    }
    // Like the Java array maps' default capacity: avoid tiny-growth churn.
    if (Keys.capacity() == 0) {
      Keys.reserve(InitialCapacity);
      Vals.reserve(InitialCapacity);
    }
    Keys.push_back(Key);
    Vals.push_back(Value);
    return true;
  }

  const V *get(const K &Key) const override {
    for (size_t I = 0, E = Keys.size(); I != E; ++I)
      if (Keys[I] == Key)
        return &Vals[I];
    return nullptr;
  }

  V *getMutable(const K &Key) override {
    return const_cast<V *>(
        static_cast<const ArrayMapImpl *>(this)->get(Key));
  }

  bool containsKey(const K &Key) const override {
    return get(Key) != nullptr;
  }

  bool remove(const K &Key) override {
    for (size_t I = 0, E = Keys.size(); I != E; ++I) {
      if (Keys[I] == Key) {
        Keys.erase(Keys.begin() + static_cast<ptrdiff_t>(I));
        Vals.erase(Vals.begin() + static_cast<ptrdiff_t>(I));
        return true;
      }
    }
    return false;
  }

  size_t size() const override { return Keys.size(); }

  void clear() override {
    Keys.clear();
    Vals.clear();
  }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    for (size_t I = 0, E = Keys.size(); I != E; ++I)
      Fn(Keys[I], Vals[I]);
  }

  void reserve(size_t N) override {
    if (N == 0)
      return;
    Keys.reserve(std::max(N, InitialCapacity));
    Vals.reserve(std::max(N, InitialCapacity));
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Keys.capacity() * sizeof(K) +
           Vals.capacity() * sizeof(V);
  }

  MapVariant variant() const override { return MapVariant::ArrayMap; }

private:
  static constexpr size_t InitialCapacity = 8;

  std::vector<K, CountingAllocator<K>> Keys;
  std::vector<V, CountingAllocator<V>> Vals;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ARRAYMAP_H

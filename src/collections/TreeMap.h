//===- TreeMap.h - Sorted map variants ---------------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sorted map variants (paper §7 future work, implemented as
/// extensions): TreeMapImpl (AVL, JDK TreeMap analogue) and
/// SortedArrayMapImpl (parallel sorted arrays with binary search). Both
/// iterate in ascending key order. Key types must provide operator<.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_TREEMAP_H
#define CSWITCH_COLLECTIONS_TREEMAP_H

#include "collections/MapInterface.h"
#include "collections/detail/AVLTree.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <vector>

namespace cswitch {

/// AVL-tree MapImpl with sorted iteration.
template <typename K, typename V>
class TreeMapImpl final : public MapImpl<K, V> {
public:
  TreeMapImpl() = default;

  bool put(const K &Key, const V &Value) override {
    return Tree.insertOrAssign(Key, Value);
  }

  const V *get(const K &Key) const override { return Tree.find(Key); }

  V *getMutable(const K &Key) override { return Tree.findMutable(Key); }

  bool containsKey(const K &Key) const override {
    return Tree.find(Key) != nullptr;
  }

  bool remove(const K &Key) override { return Tree.erase(Key); }

  size_t size() const override { return Tree.size(); }

  void clear() override { Tree.clear(); }

  void clearForReuse() override { Tree.clearForReuse(); }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    Tree.inorder(Fn);
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Tree.memoryFootprint();
  }

  size_t unreservedBytes(size_t N) const override {
    return Tree.nodeBytes(N);
  }

  MapVariant variant() const override { return MapVariant::TreeMap; }

private:
  detail::AVLTree<K, V> Tree;
};

/// Parallel sorted-array MapImpl: binary-search lookups.
template <typename K, typename V>
class SortedArrayMapImpl final : public MapImpl<K, V> {
public:
  SortedArrayMapImpl() = default;

  bool put(const K &Key, const V &Value) override {
    size_t Index = lowerBound(Key);
    if (Index != Keys.size() && !(Key < Keys[Index])) {
      Vals[Index] = Value;
      return false;
    }
    if (Keys.capacity() == 0) {
      Keys.reserve(InitialCapacity);
      Vals.reserve(InitialCapacity);
    }
    Keys.insert(Keys.begin() + static_cast<ptrdiff_t>(Index), Key);
    Vals.insert(Vals.begin() + static_cast<ptrdiff_t>(Index), Value);
    return true;
  }

  const V *get(const K &Key) const override {
    size_t Index = lowerBound(Key);
    if (Index != Keys.size() && !(Key < Keys[Index]))
      return &Vals[Index];
    return nullptr;
  }

  V *getMutable(const K &Key) override {
    return const_cast<V *>(
        static_cast<const SortedArrayMapImpl *>(this)->get(Key));
  }

  bool containsKey(const K &Key) const override {
    return get(Key) != nullptr;
  }

  bool remove(const K &Key) override {
    size_t Index = lowerBound(Key);
    if (Index == Keys.size() || Key < Keys[Index])
      return false;
    Keys.erase(Keys.begin() + static_cast<ptrdiff_t>(Index));
    Vals.erase(Vals.begin() + static_cast<ptrdiff_t>(Index));
    return true;
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

  MapVariant variant() const override {
    return MapVariant::SortedArrayMap;
  }

private:
  static constexpr size_t InitialCapacity = 8;

  size_t lowerBound(const K &Key) const {
    return static_cast<size_t>(
        std::lower_bound(Keys.begin(), Keys.end(), Key) - Keys.begin());
  }

  std::vector<K, CountingAllocator<K>> Keys;
  std::vector<V, CountingAllocator<V>> Vals;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_TREEMAP_H

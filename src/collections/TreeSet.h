//===- TreeSet.h - Sorted set variants ---------------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sorted set variants (the paper's §7 future-work item, implemented
/// here as extensions to the candidate pool):
///
///   * TreeSetImpl        — AVL-balanced tree, analogue of JDK TreeSet:
///                          O(log n) everything, per-node allocation,
///                          sorted iteration.
///   * SortedArraySetImpl — sorted contiguous array: O(log n) lookups at
///                          array footprint, O(n) inserts — the
///                          memory-optimal sorted set for read-mostly
///                          workloads.
///
/// Both iterate in ascending order (a refinement of the set contract).
/// Element types must provide operator< in addition to the pool-wide
/// hashing/equality requirements.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_TREESET_H
#define CSWITCH_COLLECTIONS_TREESET_H

#include "collections/SetInterface.h"
#include "collections/detail/AVLTree.h"
#include "collections/detail/GrowthTarget.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <vector>

namespace cswitch {

/// AVL-tree SetImpl with sorted iteration.
template <typename T> class TreeSetImpl final : public SetImpl<T> {
public:
  TreeSetImpl() = default;

  bool add(const T &Value) override {
    return Tree.insertOrAssign(Value, 0);
  }

  bool contains(const T &Value) const override {
    return Tree.find(Value) != nullptr;
  }

  bool remove(const T &Value) override { return Tree.erase(Value); }

  size_t size() const override { return Tree.size(); }

  void clear() override { Tree.clear(); }

  void clearForReuse() override { Tree.clearForReuse(); }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    Tree.inorder([Fn](const T &Value, const char &) { Fn(Value); });
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Tree.memoryFootprint();
  }

  size_t unreservedBytes(size_t N) const override {
    return Tree.nodeBytes(N);
  }

  SetVariant variant() const override { return SetVariant::TreeSet; }

private:
  detail::AVLTree<T, char> Tree;
};

/// Sorted-array SetImpl: binary-search lookups, shift-based mutation.
template <typename T> class SortedArraySetImpl final : public SetImpl<T> {
public:
  SortedArraySetImpl() = default;

  bool add(const T &Value) override {
    auto It = std::lower_bound(Data.begin(), Data.end(), Value);
    if (It != Data.end() && !(Value < *It))
      return false;
    // reserve() invalidates It; carry the position as an index.
    size_t Index = static_cast<size_t>(It - Data.begin());
    detail::growForOne(Data, GrowTo, InitialCapacity);
    Data.insert(Data.begin() + static_cast<ptrdiff_t>(Index), Value);
    return true;
  }

  bool contains(const T &Value) const override {
    auto It = std::lower_bound(Data.begin(), Data.end(), Value);
    return It != Data.end() && !(Value < *It);
  }

  bool remove(const T &Value) override {
    auto It = std::lower_bound(Data.begin(), Data.end(), Value);
    if (It == Data.end() || Value < *It)
      return false;
    Data.erase(It);
    return true;
  }

  size_t size() const override { return Data.size(); }

  void clear() override {
    Data.clear();
    GrowTo = 0;
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    for (const T &V : Data)
      Fn(V);
  }

  void reserve(size_t N, size_t Target = 0) override {
    if (N)
      Data.reserve(std::max(N, InitialCapacity));
    GrowTo = Target;
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Data.capacity() * sizeof(T);
  }

  SetVariant variant() const override {
    return SetVariant::SortedArraySet;
  }

private:
  static constexpr size_t InitialCapacity = 8;

  std::vector<T, CountingAllocator<T>> Data;
  size_t GrowTo = 0; ///< One-shot growth target (DESIGN.md §4.2).
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_TREESET_H

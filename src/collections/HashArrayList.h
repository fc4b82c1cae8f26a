//===- HashArrayList.h - Array list with hash lookup index ------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HashArrayList variant (paper Table 2, "ArrayList + HashBag for
/// faster lookups"): contiguous element storage plus a hash multiset
/// index, giving O(1) contains at the price of extra memory and slower
/// mutation — every structural change maintains both structures. The
/// paper's multi-phase experiment (§5.1) calls out remove-by-value as the
/// operation where this cost bites.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_HASHARRAYLIST_H
#define CSWITCH_COLLECTIONS_HASHARRAYLIST_H

#include "collections/ListInterface.h"
#include "collections/detail/HashBag.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace cswitch {

/// Array + hash-bag ListImpl.
template <typename T> class HashArrayListImpl final : public ListImpl<T> {
public:
  HashArrayListImpl() = default;

  void push_back(const T &Value) override {
    if (Data.capacity() == 0)
      Data.reserve(InitialCapacity);
    Data.push_back(Value);
    Index.addOne(Value);
  }

  void insertAt(size_t Pos, const T &Value) override {
    assert(Pos <= Data.size() && "insert index out of range");
    Data.insert(Data.begin() + static_cast<ptrdiff_t>(Pos), Value);
    Index.addOne(Value);
  }

  void removeAt(size_t Pos) override {
    assert(Pos < Data.size() && "remove index out of range");
    Index.removeOne(Data[Pos]);
    Data.erase(Data.begin() + static_cast<ptrdiff_t>(Pos));
  }

  bool removeValue(const T &Value) override {
    // The bag answers "is it here" in O(1), but locating the position for
    // the array removal is still linear — the slowness the paper observed.
    if (!Index.contains(Value))
      return false;
    auto It = std::find(Data.begin(), Data.end(), Value);
    assert(It != Data.end() && "index out of sync with data");
    Index.removeOne(Value);
    Data.erase(It);
    return true;
  }

  const T &at(size_t Pos) const override {
    assert(Pos < Data.size() && "index out of range");
    return Data[Pos];
  }

  void set(size_t Pos, const T &Value) override {
    assert(Pos < Data.size() && "index out of range");
    Index.removeOne(Data[Pos]);
    Data[Pos] = Value;
    Index.addOne(Value);
  }

  bool contains(const T &Value) const override {
    return Index.contains(Value);
  }

  size_t size() const override { return Data.size(); }

  void clear() override {
    Data.clear();
    Index.clear();
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    for (const T &V : Data)
      Fn(V);
  }

  void reserve(size_t N) override {
    if (N == 0)
      return;
    Data.reserve(std::max(N, InitialCapacity));
    Index.reserve(N);
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Data.capacity() * sizeof(T) +
           Index.memoryFootprint();
  }

  ListVariant variant() const override {
    return ListVariant::HashArrayList;
  }

  std::unique_ptr<ListImpl<T>> cloneEmpty() const override {
    return std::make_unique<HashArrayListImpl<T>>();
  }

private:
  static constexpr size_t InitialCapacity = 8;

  std::vector<T, CountingAllocator<T>> Data;
  detail::HashBag<T> Index;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_HASHARRAYLIST_H

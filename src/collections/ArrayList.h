//===- ArrayList.h - Array-backed list variant ------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array-backed list variant: contiguous storage, O(1) append and
/// positional access, O(n) membership test and interior insert/remove.
/// Analogue of JDK ArrayList in the paper's Table 2, and the default
/// variant most allocation sites start from.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ARRAYLIST_H
#define CSWITCH_COLLECTIONS_ARRAYLIST_H

#include "collections/ListInterface.h"
#include "collections/detail/GrowthTarget.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace cswitch {

/// Array-backed ListImpl.
template <typename T> class ArrayListImpl final : public ListImpl<T> {
public:
  ArrayListImpl() = default;

  void push_back(const T &Value) override {
    // Like JDK ArrayList's default capacity of 10: avoid the 1-2-4-8
    // growth churn every tiny list would otherwise pay.
    detail::growForOne(Data, GrowTo, InitialCapacity);
    Data.push_back(Value);
  }

  void insertAt(size_t Index, const T &Value) override {
    assert(Index <= Data.size() && "insert index out of range");
    detail::growForOne(Data, GrowTo, 0);
    Data.insert(Data.begin() + static_cast<ptrdiff_t>(Index), Value);
  }

  void removeAt(size_t Index) override {
    assert(Index < Data.size() && "remove index out of range");
    Data.erase(Data.begin() + static_cast<ptrdiff_t>(Index));
  }

  bool removeValue(const T &Value) override {
    auto It = std::find(Data.begin(), Data.end(), Value);
    if (It == Data.end())
      return false;
    Data.erase(It);
    return true;
  }

  const T &at(size_t Index) const override {
    assert(Index < Data.size() && "index out of range");
    return Data[Index];
  }

  void set(size_t Index, const T &Value) override {
    assert(Index < Data.size() && "index out of range");
    Data[Index] = Value;
  }

  bool contains(const T &Value) const override {
    return std::find(Data.begin(), Data.end(), Value) != Data.end();
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

  ListVariant variant() const override { return ListVariant::ArrayList; }

private:
  static constexpr size_t InitialCapacity = 8;

  std::vector<T, CountingAllocator<T>> Data;
  size_t GrowTo = 0; ///< One-shot growth target (DESIGN.md §4.2).
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ARRAYLIST_H

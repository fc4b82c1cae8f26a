//===- ArraySet.h - Array-backed set variant ---------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array-backed set variant, analogue of the ArraySet implementations
/// the paper draws from Google HTTP Client, Stanford NLP and FastUtil:
/// a plain insertion-ordered array with linear membership tests. The
/// paper's "narrow best-case scenario" variant — minimal footprint and
/// the fastest choice for very small sets thanks to cache locality, but
/// linear everything.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ARRAYSET_H
#define CSWITCH_COLLECTIONS_ARRAYSET_H

#include "collections/SetInterface.h"
#include "collections/detail/GrowthTarget.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <vector>

namespace cswitch {

/// Array-backed SetImpl with insertion-ordered iteration.
template <typename T> class ArraySetImpl final : public SetImpl<T> {
public:
  ArraySetImpl() = default;

  bool add(const T &Value) override {
    if (contains(Value))
      return false;
    // Like the Java array sets' default capacity: avoid tiny-growth churn.
    detail::growForOne(Data, GrowTo, InitialCapacity);
    Data.push_back(Value);
    return true;
  }

  bool contains(const T &Value) const override {
    return std::find(Data.begin(), Data.end(), Value) != Data.end();
  }

  bool remove(const T &Value) override {
    auto It = std::find(Data.begin(), Data.end(), Value);
    if (It == Data.end())
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

  SetVariant variant() const override { return SetVariant::ArraySet; }

private:
  static constexpr size_t InitialCapacity = 8;

  std::vector<T, CountingAllocator<T>> Data;
  size_t GrowTo = 0; ///< One-shot growth target (DESIGN.md §4.2).
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ARRAYSET_H

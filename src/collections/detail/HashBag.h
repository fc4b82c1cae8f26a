//===- HashBag.h - Group-probed hash multiset (internal) --------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash multiset used as the lookup index of HashArrayList and of a
/// migrated AdaptiveList — the paper's "ArrayList + HashBag for faster
/// lookups" variant (Table 2). It is a value → count table on the
/// group-probed core (OpenHashTable.h) at maximum load 1/2, the fast
/// variants' load: one counted allocation of `Cap·(sizeof(T) + 4 + 1) +
/// 15` bytes per capacity, no per-value node, and a tombstone when a
/// value's last occurrence goes. addOne() and removeOne() each probe the
/// table once. Internal to the collections library; not part of the
/// public API.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H
#define CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H

#include "collections/detail/OpenHashTable.h"

#include <cstdint>
#include <new>

namespace cswitch {
namespace detail {

/// A multiset of T: each distinct value and its multiplicity in one slot.
template <typename T, typename Hash = DefaultHash<T>>
class HashBag : private GroupProbedTable<T, uint32_t, 1, 2, Hash> {
  using Table = GroupProbedTable<T, uint32_t, 1, 2, Hash>;

public:
  using Table::capacity;
  using Table::clear;
  using Table::clearKeepingStorage;
  using Table::memoryFootprint;
  using Table::reserve;

  /// Adds one occurrence of \p Value.
  void addOne(const T &Value) {
    auto [Index, Inserted] = this->findOrInsert(Value, [&](size_t I) {
      new (this->keys() + I) T(Value);
      new (this->values() + I) uint32_t(1);
    });
    if (!Inserted)
      ++this->values()[Index];
  }

  /// Removes one occurrence of \p Value; returns false if absent.
  bool removeOne(const T &Value) {
    size_t Index = this->findIndex(Value);
    if (Index == Table::NotFound)
      return false;
    if (--this->values()[Index] == 0)
      this->eraseIndex(Index);
    return true;
  }

  /// Returns true if at least one occurrence of \p Value is present.
  bool contains(const T &Value) const {
    return this->findIndex(Value) != Table::NotFound;
  }

  /// Number of distinct values held.
  size_t distinctSize() const { return this->size(); }
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H

//===- OpenHashMap.h - Open-addressing map variants --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-addressing map variants: OpenHashMap probes a half-empty
/// table (Koloboke-like), CompactHashMap a 7/8-full one (memory-
/// efficient). See OpenHashSet.h for the role these play in the
/// candidate pool.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_OPENHASHMAP_H
#define CSWITCH_COLLECTIONS_OPENHASHMAP_H

#include "collections/MapInterface.h"
#include "collections/detail/OpenHashTable.h"

namespace cswitch {

/// Open-addressing MapImpl shared by the fast and compact variants.
template <typename K, typename V, MapVariant Variant, unsigned LoadNum,
          unsigned LoadDen>
class OpenAddressingMapImpl final : public MapImpl<K, V> {
public:
  OpenAddressingMapImpl() = default;

  bool put(const K &Key, const V &Value) override {
    return Table.insertOrAssign(Key, Value);
  }

  const V *get(const K &Key) const override { return Table.find(Key); }

  V *getMutable(const K &Key) override { return Table.findMutable(Key); }

  bool containsKey(const K &Key) const override {
    return Table.find(Key) != nullptr;
  }

  bool remove(const K &Key) override { return Table.erase(Key); }

  size_t size() const override { return Table.size(); }

  void clear() override { Table.clear(); }

  void clearForReuse() override { Table.clearKeepingStorage(); }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    Table.forEach(Fn);
  }

  void reserve(size_t N) override { Table.reserve(N); }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Table.memoryFootprint();
  }

  MapVariant variant() const override { return Variant; }

private:
  detail::OpenHashMapTable<K, V, LoadNum, LoadDen> Table;
};

/// Fast open-addressing map: maximum load factor 1/2.
template <typename K, typename V>
using OpenHashMapImpl =
    OpenAddressingMapImpl<K, V, MapVariant::OpenHashMap, 1, 2>;

/// Compact open-addressing map: maximum load factor 7/8.
template <typename K, typename V>
using CompactHashMapImpl =
    OpenAddressingMapImpl<K, V, MapVariant::CompactHashMap, 7, 8>;

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_OPENHASHMAP_H

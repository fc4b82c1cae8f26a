//===- OpenHashSet.h - Open-addressing set variants --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-addressing set variants. OpenHashSet probes a half-empty
/// table (Koloboke-like: fastest lookups, more memory than compact);
/// CompactHashSet runs the same linear-probing scheme at 7/8 maximum load
/// (FastUtil/VLSI-like: most memory-efficient hash set, slower lookups
/// near capacity). Together with ChainedHashSet they span the time/space
/// spectrum the selection rules navigate in Fig. 5.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_OPENHASHSET_H
#define CSWITCH_COLLECTIONS_OPENHASHSET_H

#include "collections/SetInterface.h"
#include "collections/detail/OpenHashTable.h"

namespace cswitch {

/// Open-addressing SetImpl shared by the fast and compact variants.
///
/// \tparam Variant which SetVariant this instantiation reports.
/// \tparam LoadNum / \tparam LoadDen maximum load factor.
template <typename T, SetVariant Variant, unsigned LoadNum, unsigned LoadDen>
class OpenAddressingSetImpl final : public SetImpl<T> {
public:
  OpenAddressingSetImpl() = default;

  bool add(const T &Value) override { return Table.insert(Value); }

  bool contains(const T &Value) const override {
    return Table.contains(Value);
  }

  bool remove(const T &Value) override { return Table.erase(Value); }

  size_t size() const override { return Table.size(); }

  void clear() override { Table.clear(); }

  void clearForReuse() override { Table.clearKeepingStorage(); }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    Table.forEach(Fn);
  }

  void reserve(size_t N, size_t GrowTo = 0) override {
    Table.reserve(N, GrowTo);
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Table.memoryFootprint();
  }

  SetVariant variant() const override { return Variant; }

private:
  detail::OpenHashSetTable<T, LoadNum, LoadDen> Table;
};

/// Fast open-addressing set: maximum load factor 1/2.
template <typename T>
using OpenHashSetImpl =
    OpenAddressingSetImpl<T, SetVariant::OpenHashSet, 1, 2>;

/// Compact open-addressing set: maximum load factor 7/8.
template <typename T>
using CompactHashSetImpl =
    OpenAddressingSetImpl<T, SetVariant::CompactHashSet, 7, 8>;

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_OPENHASHSET_H

//===- AdaptiveSet.h - Size-adaptive set variant ------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AdaptiveSet variant (paper §3.2, Table 1: array → openhash at size
/// 40): a plain array while small — lowest footprint, cache-friendly
/// linear membership tests — migrating to an open-addressing hash table
/// once the size crosses the threshold. The instant transition copies all
/// elements exactly once; the transition is one-way.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ADAPTIVESET_H
#define CSWITCH_COLLECTIONS_ADAPTIVESET_H

#include "collections/AdaptiveConfig.h"
#include "collections/SetInterface.h"
#include "collections/detail/OpenHashTable.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <vector>

namespace cswitch {

/// Size-adaptive SetImpl (array, then open-addressing hash).
template <typename T> class AdaptiveSetImpl final : public SetImpl<T> {
public:
  /// Uses the process-wide threshold by default.
  AdaptiveSetImpl() : Threshold(AdaptiveConfig::global().thresholds().Set) {}

  explicit AdaptiveSetImpl(size_t Threshold) : Threshold(Threshold) {}

  bool add(const T &Value) override {
    if (Migrated)
      return Table.insert(Value);
    if (std::find(Small.begin(), Small.end(), Value) != Small.end())
      return false;
    if (Small.capacity() == 0)
      Small.reserve(InitialCapacity);
    Small.push_back(Value);
    if (Small.size() > Threshold)
      migrate();
    return true;
  }

  bool contains(const T &Value) const override {
    if (Migrated)
      return Table.contains(Value);
    return std::find(Small.begin(), Small.end(), Value) != Small.end();
  }

  bool remove(const T &Value) override {
    if (Migrated)
      return Table.erase(Value);
    auto It = std::find(Small.begin(), Small.end(), Value);
    if (It == Small.end())
      return false;
    Small.erase(It);
    return true;
  }

  size_t size() const override {
    return Migrated ? Table.size() : Small.size();
  }

  void clear() override {
    Small.clear();
    Small.shrink_to_fit();
    Table.clear();
    PendingTable = 0;
    Migrated = false;
  }

  /// Keeps the array's capacity and the table's storage, and returns to
  /// the array with no table reservation pending, as a fresh set is.
  void clearForReuse() override {
    Small.clear();
    Table.clearKeepingStorage();
    PendingTable = 0;
    Migrated = false;
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    if (Migrated) {
      Table.forEach(Fn);
      return;
    }
    for (const T &V : Small)
      Fn(V);
  }

  /// A reservation past the threshold starts the set migrated, its
  /// table sized for max(\p N, \p GrowTo), so the small array is never
  /// allocated. Below it, the array takes \p N and migration, the set's
  /// growth step, sizes the table for at least \p GrowTo.
  void reserve(size_t N, size_t GrowTo = 0) override {
    if (Migrated) {
      Table.reserve(N, GrowTo);
      return;
    }
    PendingTable = std::max(PendingTable, GrowTo);
    if (N > Threshold) {
      PendingTable = std::max(PendingTable, N);
      migrate();
    } else if (N) {
      Small.reserve(std::max(N, InitialCapacity));
    }
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Small.capacity() * sizeof(T) +
           Table.memoryFootprint();
  }

  SetVariant variant() const override { return SetVariant::AdaptiveSet; }

  /// True once the hash representation is active.
  bool hasMigrated() const { return Migrated; }

  /// The transition threshold of this instance.
  size_t threshold() const { return Threshold; }

private:
  void migrate() {
    Table.reserve(std::max(PendingTable, Small.size() * 2));
    for (const T &V : Small)
      Table.insert(V);
    Small.clear();
    Small.shrink_to_fit();
    Migrated = true;
    AdaptiveConfig::global().recordMigration();
  }

  static constexpr size_t InitialCapacity = 8;

  std::vector<T, CountingAllocator<T>> Small;
  detail::OpenHashSetTable<T, 1, 2> Table;
  size_t Threshold;
  /// Largest reservation or growth target made before migration; sizes
  /// the table then.
  size_t PendingTable = 0;
  bool Migrated = false;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ADAPTIVESET_H

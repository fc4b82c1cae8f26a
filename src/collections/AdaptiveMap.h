//===- AdaptiveMap.h - Size-adaptive map variant ------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AdaptiveMap variant (paper §3.2, Table 1: array → openhash at size
/// 50): parallel key/value arrays while small, migrating to an
/// open-addressing table once the size crosses the threshold. This is
/// the variant behind the paper's headline lusearch result (§5.2), where
/// most HashMap instances held under 20 elements.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ADAPTIVEMAP_H
#define CSWITCH_COLLECTIONS_ADAPTIVEMAP_H

#include "collections/AdaptiveConfig.h"
#include "collections/MapInterface.h"
#include "collections/detail/OpenHashTable.h"
#include "support/MemoryTracker.h"

#include <vector>

namespace cswitch {

/// Size-adaptive MapImpl (parallel arrays, then open-addressing hash).
template <typename K, typename V>
class AdaptiveMapImpl final : public MapImpl<K, V> {
public:
  /// Uses the process-wide threshold by default.
  AdaptiveMapImpl() : Threshold(AdaptiveConfig::global().thresholds().Map) {}

  explicit AdaptiveMapImpl(size_t Threshold) : Threshold(Threshold) {}

  bool put(const K &Key, const V &Value) override {
    if (Migrated)
      return Table.insertOrAssign(Key, Value);
    for (size_t I = 0, E = SmallKeys.size(); I != E; ++I) {
      if (SmallKeys[I] == Key) {
        SmallVals[I] = Value;
        return false;
      }
    }
    if (SmallKeys.capacity() == 0) {
      SmallKeys.reserve(InitialCapacity);
      SmallVals.reserve(InitialCapacity);
    }
    SmallKeys.push_back(Key);
    SmallVals.push_back(Value);
    if (SmallKeys.size() > Threshold)
      migrate();
    return true;
  }

  const V *get(const K &Key) const override {
    if (Migrated)
      return Table.find(Key);
    for (size_t I = 0, E = SmallKeys.size(); I != E; ++I)
      if (SmallKeys[I] == Key)
        return &SmallVals[I];
    return nullptr;
  }

  V *getMutable(const K &Key) override {
    return const_cast<V *>(
        static_cast<const AdaptiveMapImpl *>(this)->get(Key));
  }

  bool containsKey(const K &Key) const override {
    return get(Key) != nullptr;
  }

  bool remove(const K &Key) override {
    if (Migrated)
      return Table.erase(Key);
    for (size_t I = 0, E = SmallKeys.size(); I != E; ++I) {
      if (SmallKeys[I] == Key) {
        SmallKeys.erase(SmallKeys.begin() + static_cast<ptrdiff_t>(I));
        SmallVals.erase(SmallVals.begin() + static_cast<ptrdiff_t>(I));
        return true;
      }
    }
    return false;
  }

  size_t size() const override {
    return Migrated ? Table.size() : SmallKeys.size();
  }

  void clear() override {
    SmallKeys.clear();
    SmallKeys.shrink_to_fit();
    SmallVals.clear();
    SmallVals.shrink_to_fit();
    Table.clear();
    Migrated = false;
  }

  /// See AdaptiveSetImpl::clearForReuse().
  void clearForReuse() override {
    SmallKeys.clear();
    SmallVals.clear();
    Table.clearKeepingStorage();
    PendingTable = 0;
    Migrated = false;
  }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    if (Migrated) {
      Table.forEach(Fn);
      return;
    }
    for (size_t I = 0, E = SmallKeys.size(); I != E; ++I)
      Fn(SmallKeys[I], SmallVals[I]);
  }

  /// See AdaptiveSetImpl::reserve().
  void reserve(size_t N) override {
    if (N == 0)
      return;
    if (Migrated) {
      Table.reserve(N);
    } else if (N <= Threshold) {
      SmallKeys.reserve(std::max(N, InitialCapacity));
      SmallVals.reserve(std::max(N, InitialCapacity));
    } else {
      SmallKeys.reserve(Threshold + 1);
      SmallVals.reserve(Threshold + 1);
      PendingTable = std::max(PendingTable, N);
    }
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + SmallKeys.capacity() * sizeof(K) +
           SmallVals.capacity() * sizeof(V) + Table.memoryFootprint();
  }

  /// See AdaptiveSetImpl::unreservedBytes().
  size_t unreservedBytes(size_t N) const override {
    return N > Threshold ? Table.bytesFor(std::max(N, (Threshold + 1) * 2))
                         : 0;
  }

  MapVariant variant() const override { return MapVariant::AdaptiveMap; }

  /// True once the hash representation is active.
  bool hasMigrated() const { return Migrated; }

  /// The transition threshold of this instance.
  size_t threshold() const { return Threshold; }

private:
  void migrate() {
    Table.reserve(std::max(PendingTable, SmallKeys.size() * 2));
    for (size_t I = 0, E = SmallKeys.size(); I != E; ++I)
      Table.insertOrAssign(SmallKeys[I], SmallVals[I]);
    SmallKeys.clear();
    SmallKeys.shrink_to_fit();
    SmallVals.clear();
    SmallVals.shrink_to_fit();
    Migrated = true;
    AdaptiveConfig::global().recordMigration();
  }

  static constexpr size_t InitialCapacity = 8;

  std::vector<K, CountingAllocator<K>> SmallKeys;
  std::vector<V, CountingAllocator<V>> SmallVals;
  detail::OpenHashMapTable<K, V, 1, 2> Table;
  size_t Threshold;
  /// Largest reservation made before migration; sizes the table then.
  size_t PendingTable = 0;
  bool Migrated = false;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ADAPTIVEMAP_H

//===- Factory.h - Variant construction -------------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constructs a collection implementation from a variant id. This is the
/// one place that knows every concrete variant; allocation contexts and
/// the model builder go through it so a new variant only needs to be
/// registered here (plus its Variants.h enum entry) to join the candidate
/// pool.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_FACTORY_H
#define CSWITCH_COLLECTIONS_FACTORY_H

#include "collections/AdaptiveList.h"
#include "collections/AdaptiveMap.h"
#include "collections/AdaptiveSet.h"
#include "collections/ArrayList.h"
#include "collections/ArrayMap.h"
#include "collections/ArraySet.h"
#include "collections/ChainedHashMap.h"
#include "collections/ChainedHashSet.h"
#include "collections/HashArrayList.h"
#include "collections/LinkedHashMap.h"
#include "collections/LinkedHashSet.h"
#include "collections/LinkedList.h"
#include "collections/OpenHashMap.h"
#include "collections/OpenHashSet.h"
#include "collections/TreeMap.h"
#include "collections/TreeSet.h"
#include "collections/concurrent/MutexHashMap.h"
#include "collections/concurrent/MutexHashSet.h"
#include "collections/concurrent/MutexList.h"
#include "collections/concurrent/ShardedHashMap.h"
#include "collections/concurrent/SnapshotList.h"
#include "collections/concurrent/StripedHashSet.h"

#include <cassert>
#include <memory>

namespace cswitch {

/// Creates an empty list implementation of variant \p V. \p Adaptive,
/// when non-null, overrides the process-wide AdaptiveConfig thresholds
/// for the adaptive variant (per-context thresholds; see
/// ContextOptions::AdaptiveOverride).
template <typename T>
std::unique_ptr<ListImpl<T>>
makeListImpl(ListVariant V, const AdaptiveThresholds *Adaptive = nullptr) {
  switch (V) {
  case ListVariant::ArrayList:
    return std::make_unique<ArrayListImpl<T>>();
  case ListVariant::LinkedList:
    return std::make_unique<LinkedListImpl<T>>();
  case ListVariant::HashArrayList:
    return std::make_unique<HashArrayListImpl<T>>();
  case ListVariant::AdaptiveList:
    return Adaptive ? std::make_unique<AdaptiveListImpl<T>>(Adaptive->List)
                    : std::make_unique<AdaptiveListImpl<T>>();
  case ListVariant::MutexList:
    return std::make_unique<MutexListImpl<T>>();
  case ListVariant::SnapshotList:
    return std::make_unique<SnapshotListImpl<T>>();
  }
  assert(false && "unknown list variant");
  return nullptr;
}

/// Creates an empty set implementation of variant \p V (see makeListImpl
/// for \p Adaptive).
template <typename T>
std::unique_ptr<SetImpl<T>>
makeSetImpl(SetVariant V, const AdaptiveThresholds *Adaptive = nullptr) {
  switch (V) {
  case SetVariant::ChainedHashSet:
    return std::make_unique<ChainedHashSetImpl<T>>();
  case SetVariant::OpenHashSet:
    return std::make_unique<OpenHashSetImpl<T>>();
  case SetVariant::LinkedHashSet:
    return std::make_unique<LinkedHashSetImpl<T>>();
  case SetVariant::ArraySet:
    return std::make_unique<ArraySetImpl<T>>();
  case SetVariant::CompactHashSet:
    return std::make_unique<CompactHashSetImpl<T>>();
  case SetVariant::AdaptiveSet:
    return Adaptive ? std::make_unique<AdaptiveSetImpl<T>>(Adaptive->Set)
                    : std::make_unique<AdaptiveSetImpl<T>>();
  case SetVariant::TreeSet:
    return std::make_unique<TreeSetImpl<T>>();
  case SetVariant::SortedArraySet:
    return std::make_unique<SortedArraySetImpl<T>>();
  case SetVariant::MutexHashSet:
    return std::make_unique<MutexHashSetImpl<T>>();
  case SetVariant::StripedHashSet:
    return std::make_unique<StripedHashSetImpl<T>>();
  }
  assert(false && "unknown set variant");
  return nullptr;
}

/// Creates an empty map implementation of variant \p Variant (see
/// makeListImpl for \p Adaptive).
template <typename K, typename V>
std::unique_ptr<MapImpl<K, V>>
makeMapImpl(MapVariant Variant, const AdaptiveThresholds *Adaptive = nullptr) {
  switch (Variant) {
  case MapVariant::ChainedHashMap:
    return std::make_unique<ChainedHashMapImpl<K, V>>();
  case MapVariant::OpenHashMap:
    return std::make_unique<OpenHashMapImpl<K, V>>();
  case MapVariant::LinkedHashMap:
    return std::make_unique<LinkedHashMapImpl<K, V>>();
  case MapVariant::ArrayMap:
    return std::make_unique<ArrayMapImpl<K, V>>();
  case MapVariant::CompactHashMap:
    return std::make_unique<CompactHashMapImpl<K, V>>();
  case MapVariant::AdaptiveMap:
    return Adaptive ? std::make_unique<AdaptiveMapImpl<K, V>>(Adaptive->Map)
                    : std::make_unique<AdaptiveMapImpl<K, V>>();
  case MapVariant::TreeMap:
    return std::make_unique<TreeMapImpl<K, V>>();
  case MapVariant::SortedArrayMap:
    return std::make_unique<SortedArrayMapImpl<K, V>>();
  case MapVariant::MutexHashMap:
    return std::make_unique<MutexHashMapImpl<K, V>>();
  case MapVariant::ShardedHashMap:
    return std::make_unique<ShardedHashMapImpl<K, V>>();
  }
  assert(false && "unknown map variant");
  return nullptr;
}

/// Creates an unmonitored List facade of variant \p V.
template <typename T> List<T> makeList(ListVariant V) {
  return List<T>(makeListImpl<T>(V));
}

/// Creates an unmonitored Set facade of variant \p V.
template <typename T> Set<T> makeSet(SetVariant V) {
  return Set<T>(makeSetImpl<T>(V));
}

/// Creates an unmonitored Map facade of variant \p Variant.
template <typename K, typename V> Map<K, V> makeMap(MapVariant Variant) {
  return Map<K, V>(makeMapImpl<K, V>(Variant));
}

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_FACTORY_H

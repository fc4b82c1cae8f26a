//===- Variants.h - Collection variant identities --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Identities of the collection variants considered by the framework —
/// the C++ equivalents of the paper's Table 2 candidate set. Variant ids
/// are the currency of the whole system: the performance model is indexed
/// by them, allocation contexts select among them, and the transition log
/// names them.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_VARIANTS_H
#define CSWITCH_COLLECTIONS_VARIANTS_H

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

namespace cswitch {

/// Which abstract data type a variant implements.
enum class AbstractionKind : unsigned { List, Set, Map };

/// Number of AbstractionKind values.
constexpr size_t NumAbstractionKinds = 3;

/// Returns "list", "set" or "map".
const char *abstractionKindName(AbstractionKind Kind);

/// List implementation variants (paper Table 2, Lists rows, plus the
/// concurrent tier — DESIGN.md §11).
enum class ListVariant : unsigned {
  ArrayList,     ///< Array-backed list (JDK ArrayList analogue).
  LinkedList,    ///< Doubly-linked list (JDK LinkedList analogue).
  HashArrayList, ///< Array + hash bag for O(1) lookups (Switch variant).
  AdaptiveList,  ///< Array on small sizes, hash-array above threshold.
  MutexList,     ///< Mutex-serialized array list (concurrent tier).
  SnapshotList,  ///< Copy-on-write, snapshot-on-iterate (concurrent tier).
};

constexpr size_t NumListVariants = 6;
constexpr std::array<ListVariant, NumListVariants> AllListVariants = {
    ListVariant::ArrayList,    ListVariant::LinkedList,
    ListVariant::HashArrayList, ListVariant::AdaptiveList,
    ListVariant::MutexList,    ListVariant::SnapshotList};

/// Set implementation variants (paper Table 2, Sets rows).
enum class SetVariant : unsigned {
  ChainedHashSet, ///< Chained hash table (JDK HashSet analogue).
  OpenHashSet,    ///< Open addressing, low load factor (Koloboke-like).
  LinkedHashSet,  ///< Chained hash + insertion order (JDK analogue).
  ArraySet,       ///< Plain array, linear search (Google/NLP analogue).
  CompactHashSet, ///< Open addressing, high load factor (compact).
  AdaptiveSet,    ///< Array on small sizes, open hash above threshold.
  TreeSet,        ///< AVL tree, sorted iteration (JDK TreeSet analogue).
  SortedArraySet, ///< Sorted array, binary-search lookups.
  MutexHashSet,   ///< Mutex-serialized open hash (concurrent tier).
  StripedHashSet, ///< Per-shard mutex striping (concurrent tier).
};

constexpr size_t NumSetVariants = 10;
constexpr std::array<SetVariant, NumSetVariants> AllSetVariants = {
    SetVariant::ChainedHashSet, SetVariant::OpenHashSet,
    SetVariant::LinkedHashSet,  SetVariant::ArraySet,
    SetVariant::CompactHashSet, SetVariant::AdaptiveSet,
    SetVariant::TreeSet,        SetVariant::SortedArraySet,
    SetVariant::MutexHashSet,   SetVariant::StripedHashSet};

/// Map implementation variants (paper Table 2, Maps rows).
enum class MapVariant : unsigned {
  ChainedHashMap, ///< Chained hash table (JDK HashMap analogue).
  OpenHashMap,    ///< Open addressing, low load factor (Koloboke-like).
  LinkedHashMap,  ///< Chained hash + insertion order (JDK analogue).
  ArrayMap,       ///< Parallel key/value arrays, linear search.
  CompactHashMap, ///< Open addressing, high load factor (compact).
  AdaptiveMap,    ///< Array on small sizes, open hash above threshold.
  TreeMap,        ///< AVL tree, sorted iteration (JDK TreeMap analogue).
  SortedArrayMap, ///< Parallel sorted arrays, binary-search lookups.
  MutexHashMap,   ///< Mutex-serialized open hash (concurrent tier).
  ShardedHashMap, ///< Per-shard mutex striping (concurrent tier).
};

constexpr size_t NumMapVariants = 10;
constexpr std::array<MapVariant, NumMapVariants> AllMapVariants = {
    MapVariant::ChainedHashMap, MapVariant::OpenHashMap,
    MapVariant::LinkedHashMap,  MapVariant::ArrayMap,
    MapVariant::CompactHashMap, MapVariant::AdaptiveMap,
    MapVariant::TreeMap,        MapVariant::SortedArrayMap,
    MapVariant::MutexHashMap,   MapVariant::ShardedHashMap};

/// Returns the stable name of a variant (e.g. "ArrayList").
const char *listVariantName(ListVariant V);
const char *setVariantName(SetVariant V);
const char *mapVariantName(MapVariant V);

/// Parses a variant name; returns false if unknown.
bool parseListVariant(std::string_view Name, ListVariant &Out);
bool parseSetVariant(std::string_view Name, SetVariant &Out);
bool parseMapVariant(std::string_view Name, MapVariant &Out);

/// An abstraction-tagged variant id, usable as a key across abstractions
/// (the performance model and the transition log are indexed by these).
struct VariantId {
  AbstractionKind Abstraction;
  unsigned Index; ///< Value of the abstraction-specific enum.

  static VariantId of(ListVariant V) {
    return {AbstractionKind::List, static_cast<unsigned>(V)};
  }
  static VariantId of(SetVariant V) {
    return {AbstractionKind::Set, static_cast<unsigned>(V)};
  }
  static VariantId of(MapVariant V) {
    return {AbstractionKind::Map, static_cast<unsigned>(V)};
  }

  bool operator==(const VariantId &Other) const = default;

  /// Stable name of the variant this id denotes.
  std::string name() const;
};

/// Number of variants of \p Kind. Header-only, so the store and trace
/// libraries (which sit below cswitch_collections) can use it too.
constexpr size_t numVariantsOf(AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return NumListVariants;
  case AbstractionKind::Set:
    return NumSetVariants;
  case AbstractionKind::Map:
    return NumMapVariants;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// The concurrent tier (DESIGN.md §11)
//===----------------------------------------------------------------------===//

/// Synchronization strategy a context selects within (the concurrency
/// analogue of the variant pool):
///  - None: the sequential tier only — single-owner instances, the
///    paper's original candidate set. The default.
///  - Mutex: pin to the mutex-serialized concurrent variant.
///  - Sharded: pin to the lock-striped / copy-on-write concurrent
///    variant.
///  - Auto: the whole concurrent tier; the engine switches between
///    synchronization strategies as the observed contention changes.
enum class Concurrency : unsigned { None, Mutex, Sharded, Auto };

/// Returns "none", "mutex", "sharded" or "auto".
const char *concurrencyName(Concurrency Mode);

/// Parses a concurrency-mode name; returns false if unknown.
bool parseConcurrency(const std::string &Name, Concurrency &Out);

/// Index of the first concurrent variant of \p Kind (every index below
/// it is a sequential variant).
unsigned firstConcurrentVariant(AbstractionKind Kind);

/// True if variant \p Index of \p Kind belongs to the concurrent tier
/// (safe to share one instance across threads).
bool isConcurrentVariant(AbstractionKind Kind, unsigned Index);

/// Bitmap of the variants of \p Kind that compete under \p Mode: the
/// sequential pool for None, the pinned strategy's single bit for
/// Mutex/Sharded, and the whole concurrent tier for Auto.
uint32_t concurrencyCandidateMask(AbstractionKind Kind, Concurrency Mode);

/// The variant a context starts on under concurrent \p Mode (Mutex/Auto
/// start mutex-serialized — the cheapest strategy at low contention —
/// and Sharded starts striped). \p Mode must not be None.
unsigned concurrentInitialVariant(AbstractionKind Kind, Concurrency Mode);

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_VARIANTS_H

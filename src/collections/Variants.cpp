//===- Variants.cpp - Collection variant identities ----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "collections/Variants.h"

#include <cassert>

using namespace cswitch;

const char *cswitch::abstractionKindName(AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return "list";
  case AbstractionKind::Set:
    return "set";
  case AbstractionKind::Map:
    return "map";
  }
  return "unknown";
}

const char *cswitch::listVariantName(ListVariant V) {
  switch (V) {
  case ListVariant::ArrayList:
    return "ArrayList";
  case ListVariant::LinkedList:
    return "LinkedList";
  case ListVariant::HashArrayList:
    return "HashArrayList";
  case ListVariant::AdaptiveList:
    return "AdaptiveList";
  case ListVariant::MutexList:
    return "MutexList";
  case ListVariant::SnapshotList:
    return "SnapshotList";
  }
  return "unknown";
}

const char *cswitch::setVariantName(SetVariant V) {
  switch (V) {
  case SetVariant::ChainedHashSet:
    return "ChainedHashSet";
  case SetVariant::OpenHashSet:
    return "OpenHashSet";
  case SetVariant::LinkedHashSet:
    return "LinkedHashSet";
  case SetVariant::ArraySet:
    return "ArraySet";
  case SetVariant::CompactHashSet:
    return "CompactHashSet";
  case SetVariant::AdaptiveSet:
    return "AdaptiveSet";
  case SetVariant::TreeSet:
    return "TreeSet";
  case SetVariant::SortedArraySet:
    return "SortedArraySet";
  case SetVariant::MutexHashSet:
    return "MutexHashSet";
  case SetVariant::StripedHashSet:
    return "StripedHashSet";
  }
  return "unknown";
}

const char *cswitch::mapVariantName(MapVariant V) {
  switch (V) {
  case MapVariant::ChainedHashMap:
    return "ChainedHashMap";
  case MapVariant::OpenHashMap:
    return "OpenHashMap";
  case MapVariant::LinkedHashMap:
    return "LinkedHashMap";
  case MapVariant::ArrayMap:
    return "ArrayMap";
  case MapVariant::CompactHashMap:
    return "CompactHashMap";
  case MapVariant::AdaptiveMap:
    return "AdaptiveMap";
  case MapVariant::TreeMap:
    return "TreeMap";
  case MapVariant::SortedArrayMap:
    return "SortedArrayMap";
  case MapVariant::MutexHashMap:
    return "MutexHashMap";
  case MapVariant::ShardedHashMap:
    return "ShardedHashMap";
  }
  return "unknown";
}

bool cswitch::parseListVariant(std::string_view Name, ListVariant &Out) {
  for (ListVariant V : AllListVariants) {
    if (Name == listVariantName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

bool cswitch::parseSetVariant(std::string_view Name, SetVariant &Out) {
  for (SetVariant V : AllSetVariants) {
    if (Name == setVariantName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

bool cswitch::parseMapVariant(std::string_view Name, MapVariant &Out) {
  for (MapVariant V : AllMapVariants) {
    if (Name == mapVariantName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

std::string VariantId::name() const {
  switch (Abstraction) {
  case AbstractionKind::List:
    return listVariantName(static_cast<ListVariant>(Index));
  case AbstractionKind::Set:
    return setVariantName(static_cast<SetVariant>(Index));
  case AbstractionKind::Map:
    return mapVariantName(static_cast<MapVariant>(Index));
  }
  return "unknown";
}

const char *cswitch::concurrencyName(Concurrency Mode) {
  switch (Mode) {
  case Concurrency::None:
    return "none";
  case Concurrency::Mutex:
    return "mutex";
  case Concurrency::Sharded:
    return "sharded";
  case Concurrency::Auto:
    return "auto";
  }
  return "unknown";
}

bool cswitch::parseConcurrency(const std::string &Name, Concurrency &Out) {
  for (Concurrency Mode : {Concurrency::None, Concurrency::Mutex,
                           Concurrency::Sharded, Concurrency::Auto}) {
    if (Name == concurrencyName(Mode)) {
      Out = Mode;
      return true;
    }
  }
  return false;
}

namespace {

/// Mutex-serialized and lock-striped/COW variant indices of one
/// abstraction: the two strategies of the concurrent tier.
struct ConcurrentPair {
  unsigned Mutex;
  unsigned Sharded;
};

ConcurrentPair concurrentPairOf(AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return {static_cast<unsigned>(ListVariant::MutexList),
            static_cast<unsigned>(ListVariant::SnapshotList)};
  case AbstractionKind::Set:
    return {static_cast<unsigned>(SetVariant::MutexHashSet),
            static_cast<unsigned>(SetVariant::StripedHashSet)};
  case AbstractionKind::Map:
    return {static_cast<unsigned>(MapVariant::MutexHashMap),
            static_cast<unsigned>(MapVariant::ShardedHashMap)};
  }
  assert(false && "unknown abstraction kind");
  return {0, 0};
}

} // namespace

unsigned cswitch::firstConcurrentVariant(AbstractionKind Kind) {
  // The concurrent tier is appended after every sequential variant, with
  // the mutex strategy first.
  return concurrentPairOf(Kind).Mutex;
}

bool cswitch::isConcurrentVariant(AbstractionKind Kind, unsigned Index) {
  return Index >= firstConcurrentVariant(Kind);
}

uint32_t cswitch::concurrencyCandidateMask(AbstractionKind Kind,
                                           Concurrency Mode) {
  ConcurrentPair Pair = concurrentPairOf(Kind);
  switch (Mode) {
  case Concurrency::None:
    return (1u << Pair.Mutex) - 1; // Every sequential variant.
  case Concurrency::Mutex:
    return 1u << Pair.Mutex;
  case Concurrency::Sharded:
    return 1u << Pair.Sharded;
  case Concurrency::Auto:
    return (1u << Pair.Mutex) | (1u << Pair.Sharded);
  }
  return 0;
}

unsigned cswitch::concurrentInitialVariant(AbstractionKind Kind,
                                           Concurrency Mode) {
  assert(Mode != Concurrency::None &&
         "the sequential tier has no concurrent initial variant");
  ConcurrentPair Pair = concurrentPairOf(Kind);
  return Mode == Concurrency::Sharded ? Pair.Sharded : Pair.Mutex;
}

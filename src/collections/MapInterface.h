//===- MapInterface.h - Uniform map interface + facade ----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform map interface every map variant implements, and the
/// value-semantic Map<K, V> facade. See ListInterface.h for the design
/// rationale; the contract here is a key-to-value association with
/// distinct keys.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_MAPINTERFACE_H
#define CSWITCH_COLLECTIONS_MAPINTERFACE_H

#include "collections/Variants.h"
#include "collections/detail/MonitoredHandle.h"
#include "support/FunctionRef.h"

#include <cstddef>
#include <utility>
#include <vector>

namespace cswitch {

/// Abstract map implementation (one subclass per MapVariant).
template <typename K, typename V> class MapImpl {
public:
  virtual ~MapImpl() = default;

  /// Associates \p Key with \p Value; returns true if the key was new,
  /// false if an existing mapping was overwritten.
  virtual bool put(const K &Key, const V &Value) = 0;
  /// Returns the value mapped to \p Key, or nullptr if absent. The
  /// pointer is invalidated by any mutation.
  virtual const V *get(const K &Key) const = 0;
  /// Returns a mutable pointer to the value of \p Key, or nullptr.
  virtual V *getMutable(const K &Key) = 0;
  /// Copies the value of \p Key into \p Out; returns false if absent.
  /// Unlike get(), concurrent variants perform the copy under their
  /// lock, so this is the race-free read of the concurrent tier.
  virtual bool lookup(const K &Key, V &Out) const {
    const V *Found = get(Key);
    if (!Found)
      return false;
    Out = *Found;
    return true;
  }
  /// Returns true if \p Key has a mapping.
  virtual bool containsKey(const K &Key) const = 0;
  /// Removes the mapping of \p Key; returns false if it was absent.
  virtual bool remove(const K &Key) = 0;
  /// Number of mappings.
  virtual size_t size() const = 0;
  /// Removes all mappings.
  virtual void clear() = 0;
  /// Removes all mappings ahead of reuse by an allocation context's spare
  /// ring (DESIGN.md §4.4). Variants whose clear() releases storage
  /// they would soon allocate again keep it here instead.
  virtual void clearForReuse() { clear(); }
  /// Calls \p Fn on each mapping (order is variant-specific).
  virtual void forEach(FunctionRef<void(const K &, const V &)> Fn) const = 0;
  /// Capacity hint: room for \p N elements. A nonzero \p GrowTo is a
  /// one-shot growth target (DESIGN.md §4.2): the first growth past the
  /// reservation makes room for max(GrowTo, what the insert needs) at
  /// once, and later growth doubles as before; clear() and
  /// clearForReuse() forget it. Variants without capacity ignore \p N;
  /// the node-based and concurrent-tier variants ignore \p GrowTo.
  virtual void reserve(size_t /*N*/, size_t /*GrowTo*/ = 0) {}
  /// Bytes that holding \p N elements owns beyond what reserve(N)
  /// allocates: the per-element nodes of node-based variants. The spare
  /// ring's retention bound adds it to a fresh reserved instance's
  /// footprint (DESIGN.md §4.4).
  virtual size_t unreservedBytes(size_t) const { return 0; }
  /// Bytes of memory currently owned by this collection.
  virtual size_t memoryFootprint() const = 0;
  /// Which variant this is.
  virtual MapVariant variant() const = 0;

  bool empty() const { return size() == 0; }
};

/// Value-semantic map handle; see List<T> for the monitoring contract.
template <typename K, typename V>
class Map : public detail::MonitoredHandle<MapImpl<K, V>> {
  using Base = detail::MonitoredHandle<MapImpl<K, V>>;
  using Base::foldSize;
  using Base::Impl;
  using Base::note;
  using Base::noteGrowth;
  using Base::recordOp;

public:
  using Base::Base;

  /// Inserts or overwrites a mapping (profiled as populate).
  bool put(const K &Key, const V &Value) {
    note(OperationKind::Populate);
    bool Inserted = Impl->put(Key, Value);
    noteGrowth();
    recordOp(TraceOpKind::Populate,
             Inserted ? OpClass::None : OpClass::Hit);
    return Inserted;
  }

  /// Lookup (profiled as contains; nullptr if absent).
  const V *get(const K &Key) const {
    note(OperationKind::Contains);
    const V *Found = Impl->get(Key);
    recordOp(TraceOpKind::Contains, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Copying lookup (profiled as contains). The race-free read for
  /// concurrent variants: the value is copied out under the shard lock
  /// instead of returning a pointer into the table.
  bool lookup(const K &Key, V &Out) const {
    note(OperationKind::Contains);
    bool Found = Impl->lookup(Key, Out);
    recordOp(TraceOpKind::Contains, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Mutable lookup (profiled as contains; nullptr if absent).
  V *getMutable(const K &Key) {
    note(OperationKind::Contains);
    V *Found = Impl->getMutable(Key);
    recordOp(TraceOpKind::Contains, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Key membership test (profiled as contains).
  bool containsKey(const K &Key) const {
    note(OperationKind::Contains);
    bool Found = Impl->containsKey(Key);
    recordOp(TraceOpKind::Contains, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Removes a mapping (profiled as remove).
  bool remove(const K &Key) {
    note(OperationKind::Remove);
    foldSize();
    bool Found = Impl->remove(Key);
    recordOp(TraceOpKind::RemoveValue, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Full traversal (profiled as one iterate).
  void forEach(FunctionRef<void(const K &, const V &)> Fn) const {
    note(OperationKind::Iterate);
    Impl->forEach(Fn);
    recordOp(TraceOpKind::Iterate, OpClass::None);
  }

  /// Copies the mappings into a vector of pairs (profiled as one iterate).
  std::vector<std::pair<K, V>> snapshot() const {
    std::vector<std::pair<K, V>> Out;
    Out.reserve(this->size());
    forEach([&Out](const K &Key, const V &Value) {
      Out.emplace_back(Key, Value);
    });
    return Out;
  }
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_MAPINTERFACE_H

//===- SetInterface.h - Uniform set interface + facade ----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform set interface every set variant implements, and the
/// value-semantic Set<T> facade. See ListInterface.h for the design
/// rationale; the contract here is an unordered collection of distinct
/// elements (LinkedHashSet additionally iterates in insertion order,
/// a refinement — never a violation — of the contract).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_SETINTERFACE_H
#define CSWITCH_COLLECTIONS_SETINTERFACE_H

#include "collections/Variants.h"
#include "collections/detail/MonitoredHandle.h"
#include "support/FunctionRef.h"

#include <cstddef>
#include <vector>

namespace cswitch {

/// Abstract set implementation (one subclass per SetVariant).
template <typename T> class SetImpl {
public:
  virtual ~SetImpl() = default;

  /// Adds \p Value; returns false if it was already present.
  virtual bool add(const T &Value) = 0;
  /// Returns true if \p Value is present.
  virtual bool contains(const T &Value) const = 0;
  /// Removes \p Value; returns false if it was absent.
  virtual bool remove(const T &Value) = 0;
  /// Number of elements.
  virtual size_t size() const = 0;
  /// Removes all elements.
  virtual void clear() = 0;
  /// Removes all elements ahead of reuse by an allocation context's spare
  /// ring (DESIGN.md §4.4). Variants whose clear() releases storage
  /// they would soon allocate again keep it here instead.
  virtual void clearForReuse() { clear(); }
  /// Calls \p Fn on each element (order is variant-specific).
  virtual void forEach(FunctionRef<void(const T &)> Fn) const = 0;
  /// Capacity hint; variants without capacity ignore it.
  virtual void reserve(size_t) {}
  /// Bytes that holding \p N elements owns beyond what reserve(N)
  /// allocates: per-element nodes, or the table an adaptive variant
  /// builds when it migrates. The spare ring's retention bound adds it
  /// to a fresh reserved instance's footprint (DESIGN.md §4.4).
  virtual size_t unreservedBytes(size_t) const { return 0; }
  /// Bytes of memory currently owned by this collection.
  virtual size_t memoryFootprint() const = 0;
  /// Which variant this is.
  virtual SetVariant variant() const = 0;

  bool empty() const { return size() == 0; }
};

/// Value-semantic set handle; see List<T> for the monitoring contract.
template <typename T> class Set : public detail::MonitoredHandle<SetImpl<T>> {
  using Base = detail::MonitoredHandle<SetImpl<T>>;
  using Base::foldSize;
  using Base::Impl;
  using Base::note;
  using Base::noteGrowth;
  using Base::recordOp;

public:
  using Base::Base;

  /// Adds \p Value (profiled as populate).
  bool add(const T &Value) {
    note(OperationKind::Populate);
    bool Inserted = Impl->add(Value);
    noteGrowth();
    recordOp(TraceOpKind::Populate,
             Inserted ? OpClass::None : OpClass::Hit);
    return Inserted;
  }

  /// Membership test (profiled as contains).
  bool contains(const T &Value) const {
    note(OperationKind::Contains);
    bool Found = Impl->contains(Value);
    recordOp(TraceOpKind::Contains, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Removes \p Value (profiled as remove).
  bool remove(const T &Value) {
    note(OperationKind::Remove);
    foldSize();
    bool Found = Impl->remove(Value);
    recordOp(TraceOpKind::RemoveValue, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Full traversal (profiled as one iterate).
  void forEach(FunctionRef<void(const T &)> Fn) const {
    note(OperationKind::Iterate);
    Impl->forEach(Fn);
    recordOp(TraceOpKind::Iterate, OpClass::None);
  }

  /// Copies the elements into a std::vector (profiled as one iterate).
  std::vector<T> snapshot() const {
    std::vector<T> Out;
    Out.reserve(this->size());
    forEach([&Out](const T &V) { Out.push_back(V); });
    return Out;
  }
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_SETINTERFACE_H

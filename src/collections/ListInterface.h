//===- ListInterface.h - Uniform list interface + facade --------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform list interface every list variant implements, and the
/// value-semantic List<T> facade the application programs against. The
/// facade is what an allocation context hands out: it forwards every
/// operation to the current variant and counts the critical operations
/// into a WorkloadProfile, reporting it back to the context when the
/// instance finishes its life-cycle (paper §4.3, "monitor" layer).
///
/// C++ has no JCF-style uniform collection interface, so this header *is*
/// the substrate that makes runtime variant swapping possible at all —
/// see DESIGN.md §4. The monitoring itself is detail::MonitoredHandle's,
/// shared with Set<T> and Map<K, V>.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_LISTINTERFACE_H
#define CSWITCH_COLLECTIONS_LISTINTERFACE_H

#include "collections/Variants.h"
#include "collections/detail/MonitoredHandle.h"
#include "support/FunctionRef.h"

#include <cstddef>
#include <vector>

namespace cswitch {

/// Abstract list implementation (one subclass per ListVariant).
///
/// Element positions are 0-based. All variants provide the same semantic
/// contract — an ordered sequence with positional access — and differ only
/// in cost, which is exactly the property the selection framework
/// exploits.
template <typename T> class ListImpl {
public:
  virtual ~ListImpl() = default;

  /// Appends \p Value at the end.
  virtual void push_back(const T &Value) = 0;
  /// Inserts \p Value before position \p Index (Index == size() appends).
  virtual void insertAt(size_t Index, const T &Value) = 0;
  /// Removes the element at \p Index.
  virtual void removeAt(size_t Index) = 0;
  /// Removes the first occurrence of \p Value; returns false if absent.
  virtual bool removeValue(const T &Value) = 0;
  /// Returns the element at \p Index.
  virtual const T &at(size_t Index) const = 0;
  /// Replaces the element at \p Index.
  virtual void set(size_t Index, const T &Value) = 0;
  /// Returns true if \p Value occurs in the list.
  virtual bool contains(const T &Value) const = 0;
  /// Number of elements.
  virtual size_t size() const = 0;
  /// Removes all elements (capacity may be retained).
  virtual void clear() = 0;
  /// Removes all elements ahead of reuse by an allocation context's spare
  /// ring (DESIGN.md §4.4). Variants whose clear() releases storage
  /// they would soon allocate again keep it here instead.
  virtual void clearForReuse() { clear(); }
  /// Calls \p Fn on each element in list order.
  virtual void forEach(FunctionRef<void(const T &)> Fn) const = 0;
  /// Capacity hint; variants without capacity ignore it.
  virtual void reserve(size_t) {}
  /// Bytes that holding \p N elements owns beyond what reserve(N)
  /// allocates: per-element nodes, or the table an adaptive variant
  /// builds when it migrates. The spare ring's retention bound adds it
  /// to a fresh reserved instance's footprint (DESIGN.md §4.4).
  virtual size_t unreservedBytes(size_t) const { return 0; }
  /// Bytes of memory currently owned by this collection (including the
  /// object header itself) — the footprint dimension of the cost model.
  virtual size_t memoryFootprint() const = 0;
  /// Which variant this is.
  virtual ListVariant variant() const = 0;

  bool empty() const { return size() == 0; }
};

/// Value-semantic list handle: the type application code holds.
///
/// Wraps the current variant behind the uniform interface; the
/// monitoring contract (profile counting, reporting from the destructor,
/// move semantics, tracing) is detail::MonitoredHandle's. Only the list
/// operations live here.
template <typename T> class List : public detail::MonitoredHandle<ListImpl<T>> {
  using Base = detail::MonitoredHandle<ListImpl<T>>;
  using Base::foldSize;
  using Base::Impl;
  using Base::note;
  using Base::noteGrowth;
  using Base::Rec;
  using Base::recordOp;

public:
  using Base::Base;

  /// Appends \p Value (profiled as populate).
  void add(const T &Value) {
    note(OperationKind::Populate);
    Impl->push_back(Value);
    noteGrowth();
    recordOp(TraceOpKind::Populate, OpClass::None);
  }

  /// Inserts \p Value before \p Index (profiled as middle).
  void insert(size_t Index, const T &Value) {
    note(OperationKind::Middle);
    OpClass Class = Rec ? classifyIndex(Index, Impl->size()) : OpClass::None;
    Impl->insertAt(Index, Value);
    noteGrowth();
    recordOp(TraceOpKind::InsertAt, Class);
  }

  /// Removes the element at \p Index (profiled as middle).
  void removeAt(size_t Index) {
    note(OperationKind::Middle);
    foldSize();
    OpClass Class = Rec ? classifyIndex(Index, Impl->size()) : OpClass::None;
    Impl->removeAt(Index);
    recordOp(TraceOpKind::RemoveAt, Class);
  }

  /// Removes the first occurrence of \p Value (profiled as remove).
  bool remove(const T &Value) {
    note(OperationKind::Remove);
    foldSize();
    bool Found = Impl->removeValue(Value);
    recordOp(TraceOpKind::RemoveValue, Found ? OpClass::Hit : OpClass::Miss);
    return Found;
  }

  /// Positional read (profiled as index access).
  const T &get(size_t Index) const {
    note(OperationKind::IndexAccess);
    recordOp(TraceOpKind::IndexGet,
             Rec ? classifyIndex(Index, Impl->size()) : OpClass::None);
    return Impl->at(Index);
  }

  /// Positional write (profiled as index access).
  void set(size_t Index, const T &Value) {
    note(OperationKind::IndexAccess);
    recordOp(TraceOpKind::IndexSet,
             Rec ? classifyIndex(Index, Impl->size()) : OpClass::None);
    Impl->set(Index, Value);
  }

  /// Membership test (profiled as contains).
  bool contains(const T &Value) const {
    note(OperationKind::Contains);
    bool Found = Impl->contains(Value);
    recordOp(TraceOpKind::Contains, Found ? OpClass::Hit : OpClass::Miss);
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

#endif // CSWITCH_COLLECTIONS_LISTINTERFACE_H

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
/// see DESIGN.md §4.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_LISTINTERFACE_H
#define CSWITCH_COLLECTIONS_LISTINTERFACE_H

#include "collections/Variants.h"
#include "profile/SharedProfile.h"
#include "profile/WorkloadProfile.h"
#include "replay/TraceRecorder.h"
#include "support/FunctionRef.h"

#include <cassert>
#include <cstddef>
#include <memory>
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
  /// Calls \p Fn on each element in list order.
  virtual void forEach(FunctionRef<void(const T &)> Fn) const = 0;
  /// Capacity hint; variants without capacity ignore it.
  virtual void reserve(size_t) {}
  /// Bytes of memory currently owned by this collection (including the
  /// object header itself) — the footprint dimension of the cost model.
  virtual size_t memoryFootprint() const = 0;
  /// Which variant this is.
  virtual ListVariant variant() const = 0;
  /// Creates an empty list of the same variant (used when a context
  /// re-instantiates after a switch decision).
  virtual std::unique_ptr<ListImpl<T>> cloneEmpty() const = 0;

  bool empty() const { return size() == 0; }
};

/// Value-semantic list handle: the type application code holds.
///
/// Wraps the current variant behind the uniform interface, counts critical
/// operations into a WorkloadProfile and, when created monitored by an
/// allocation context, reports that profile from the destructor. Movable,
/// not copyable (a collection instance has one identity in the profiler).
template <typename T> class List {
public:
  /// An unmonitored list over \p Impl.
  explicit List(std::unique_ptr<ListImpl<T>> Impl)
      : Impl(std::move(Impl)) {}

  /// A monitored list: \p Sink receives the workload profile for
  /// monitoring slot \p Slot when this instance dies.
  List(std::unique_ptr<ListImpl<T>> Impl, ProfileSink *Sink, size_t Slot)
      : Impl(std::move(Impl)), Sink(Sink), Slot(Slot) {}

  List(List &&Other) noexcept
      : Impl(std::move(Other.Impl)), Profile(Other.Profile),
        Shared(std::move(Other.Shared)), Sink(Other.Sink),
        Slot(Other.Slot), Rec(std::move(Other.Rec)) {
    Other.Sink = nullptr;
  }

  List &operator=(List &&Other) noexcept {
    if (this == &Other)
      return *this;
    reportIfMonitored();
    finishTrace();
    Impl = std::move(Other.Impl);
    Profile = Other.Profile;
    Shared = std::move(Other.Shared);
    Sink = Other.Sink;
    Slot = Other.Slot;
    Rec = std::move(Other.Rec);
    Other.Sink = nullptr;
    return *this;
  }

  List(const List &) = delete;
  List &operator=(const List &) = delete;

  ~List() {
    reportIfMonitored();
    finishTrace();
  }

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
    Out.reserve(size());
    forEach([&Out](const T &V) { Out.push_back(V); });
    return Out;
  }

  size_t size() const { return Impl->size(); }
  bool empty() const { return Impl->empty(); }
  void clear() {
    foldSize();
    Impl->clear();
    recordOp(TraceOpKind::Clear, OpClass::None);
  }
  void reserve(size_t N) { Impl->reserve(N); }
  size_t memoryFootprint() const { return Impl->memoryFootprint(); }
  ListVariant variant() const { return Impl->variant(); }

  /// The workload profile accumulated so far (collapsed from the shared
  /// stripes when profiling is shared; see enableSharedProfiling).
  const WorkloadProfile &profile() const {
    if (Shared)
      Profile = Shared->snapshot();
    else
      foldSize();
    return Profile;
  }

  /// True if this instance reports to an allocation context.
  bool isMonitored() const { return Sink != nullptr; }

  /// Switches this instance to thread-safe, NUMA-striped profiling so
  /// multiple owner threads may operate on it concurrently (only
  /// meaningful over a concurrent-tier variant). \p Sketch, when
  /// non-null, observes every operation for the contention signal; it
  /// must outlive this instance (the allocation context owns it).
  void enableSharedProfiling(ContentionSketch *Sketch = nullptr) {
    Shared = std::make_unique<SharedProfile>(Sketch);
  }

  /// True if profiling is multi-owner (see enableSharedProfiling).
  bool isShared() const { return Shared != nullptr; }

  /// Attaches an operation recorder: every subsequent operation is
  /// appended to the trace as instance \p Instance of site \p Site, and
  /// an InstanceEnd marker is recorded when this facade dies.
  void attachRecorder(TraceRecorder *Recorder, uint32_t Site,
                      uint32_t Instance) {
    Rec.attach(Recorder, Site, Instance);
  }

  /// True if this instance records into an operation trace.
  bool isTraced() const { return static_cast<bool>(Rec); }

private:
  void reportIfMonitored() {
    if (!Sink)
      return;
    if (Shared)
      Profile = Shared->snapshot();
    else
      foldSize();
    Sink->onInstanceFinished(Slot, Profile);
    Sink = nullptr;
  }

  // Sizes are read only while a recorder is bound: Impl->size() is a
  // virtual call that untraced operations would otherwise pay.
  void finishTrace() {
    if (Rec)
      Rec.finish(Impl ? Impl->size() : 0);
  }

  void recordOp(TraceOpKind Kind, OpClass Class) const {
    if (Rec)
      Rec.push(Kind, Class, Impl->size());
  }

  void note(OperationKind Kind) const {
    if (Shared)
      Shared->record(Kind);
    else
      Profile.record(Kind);
  }

  // Sizes only fall in remove, removeAt and clear, so the one-owner
  // profile folds Impl->size() into MaxSize lazily: before each of them
  // and whenever the profile is read or reported. Growing operations
  // skip the virtual size() call. Shared profiles record every growth
  // eagerly, since other owners may shrink the list in between.
  void noteGrowth() const {
    if (Shared)
      Shared->recordSize(Impl->size());
  }

  void foldSize() const {
    if (!Shared && Impl)
      Profile.recordSize(Impl->size());
  }

  std::unique_ptr<ListImpl<T>> Impl;
  mutable WorkloadProfile Profile;
  mutable std::unique_ptr<SharedProfile> Shared;
  ProfileSink *Sink = nullptr;
  size_t Slot = 0;
  mutable TraceCursor Rec;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_LISTINTERFACE_H

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
#include "profile/SharedProfile.h"
#include "profile/WorkloadProfile.h"
#include "replay/TraceRecorder.h"
#include "support/FunctionRef.h"

#include <cstddef>
#include <memory>
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
  /// Calls \p Fn on each element (order is variant-specific).
  virtual void forEach(FunctionRef<void(const T &)> Fn) const = 0;
  /// Capacity hint; variants without capacity ignore it.
  virtual void reserve(size_t) {}
  /// Bytes of memory currently owned by this collection.
  virtual size_t memoryFootprint() const = 0;
  /// Which variant this is.
  virtual SetVariant variant() const = 0;
  /// Creates an empty set of the same variant.
  virtual std::unique_ptr<SetImpl<T>> cloneEmpty() const = 0;

  bool empty() const { return size() == 0; }
};

/// Value-semantic set handle; see List<T> for the monitoring contract.
template <typename T> class Set {
public:
  explicit Set(std::unique_ptr<SetImpl<T>> Impl) : Impl(std::move(Impl)) {}

  Set(std::unique_ptr<SetImpl<T>> Impl, ProfileSink *Sink, size_t Slot)
      : Impl(std::move(Impl)), Sink(Sink), Slot(Slot) {}

  Set(Set &&Other) noexcept
      : Impl(std::move(Other.Impl)), Profile(Other.Profile),
        Shared(std::move(Other.Shared)), Sink(Other.Sink),
        Slot(Other.Slot), Rec(std::move(Other.Rec)) {
    Other.Sink = nullptr;
  }

  Set &operator=(Set &&Other) noexcept {
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

  Set(const Set &) = delete;
  Set &operator=(const Set &) = delete;

  ~Set() {
    reportIfMonitored();
    finishTrace();
  }

  /// Adds \p Value (profiled as populate).
  bool add(const T &Value) {
    note(OperationKind::Populate);
    bool Inserted = Impl->add(Value);
    noteSize(Impl->size());
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
    Out.reserve(size());
    forEach([&Out](const T &V) { Out.push_back(V); });
    return Out;
  }

  size_t size() const { return Impl->size(); }
  bool empty() const { return Impl->empty(); }
  void clear() {
    Impl->clear();
    recordOp(TraceOpKind::Clear, OpClass::None);
  }
  void reserve(size_t N) { Impl->reserve(N); }
  size_t memoryFootprint() const { return Impl->memoryFootprint(); }
  SetVariant variant() const { return Impl->variant(); }

  /// See List<T>::profile().
  const WorkloadProfile &profile() const {
    if (Shared)
      Profile = Shared->snapshot();
    return Profile;
  }
  bool isMonitored() const { return Sink != nullptr; }

  /// See List<T>::enableSharedProfiling().
  void enableSharedProfiling(ContentionSketch *Sketch = nullptr) {
    Shared = std::make_unique<SharedProfile>(Sketch);
  }

  /// True if profiling is multi-owner (see enableSharedProfiling).
  bool isShared() const { return Shared != nullptr; }

  /// Attaches an operation recorder (see List<T>::attachRecorder).
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

  void noteSize(size_t Size) const {
    if (Shared)
      Shared->recordSize(Size);
    else
      Profile.recordSize(Size);
  }

  std::unique_ptr<SetImpl<T>> Impl;
  mutable WorkloadProfile Profile;
  mutable std::unique_ptr<SharedProfile> Shared;
  ProfileSink *Sink = nullptr;
  size_t Slot = 0;
  mutable TraceCursor Rec;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_SETINTERFACE_H

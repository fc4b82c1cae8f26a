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
#include "profile/SharedProfile.h"
#include "profile/WorkloadProfile.h"
#include "replay/TraceRecorder.h"
#include "support/FunctionRef.h"

#include <cstddef>
#include <memory>
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
  /// Calls \p Fn on each mapping (order is variant-specific).
  virtual void forEach(FunctionRef<void(const K &, const V &)> Fn) const = 0;
  /// Capacity hint; variants without capacity ignore it.
  virtual void reserve(size_t) {}
  /// Bytes of memory currently owned by this collection.
  virtual size_t memoryFootprint() const = 0;
  /// Which variant this is.
  virtual MapVariant variant() const = 0;
  /// Creates an empty map of the same variant.
  virtual std::unique_ptr<MapImpl<K, V>> cloneEmpty() const = 0;

  bool empty() const { return size() == 0; }
};

/// Value-semantic map handle; see List<T> for the monitoring contract.
template <typename K, typename V> class Map {
public:
  explicit Map(std::unique_ptr<MapImpl<K, V>> Impl)
      : Impl(std::move(Impl)) {}

  Map(std::unique_ptr<MapImpl<K, V>> Impl, ProfileSink *Sink, size_t Slot)
      : Impl(std::move(Impl)), Sink(Sink), Slot(Slot) {}

  Map(Map &&Other) noexcept
      : Impl(std::move(Other.Impl)), Profile(Other.Profile),
        Shared(std::move(Other.Shared)), Sink(Other.Sink),
        Slot(Other.Slot), Rec(std::move(Other.Rec)) {
    Other.Sink = nullptr;
  }

  Map &operator=(Map &&Other) noexcept {
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

  Map(const Map &) = delete;
  Map &operator=(const Map &) = delete;

  ~Map() {
    reportIfMonitored();
    finishTrace();
  }

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
    Out.reserve(size());
    forEach([&Out](const K &Key, const V &Value) {
      Out.emplace_back(Key, Value);
    });
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
  MapVariant variant() const { return Impl->variant(); }

  /// See List<T>::profile().
  const WorkloadProfile &profile() const {
    if (Shared)
      Profile = Shared->snapshot();
    else
      foldSize();
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

  // See List<T>::foldSize(): MaxSize is folded in lazily before every
  // shrinking operation and every profile read or report.
  void noteGrowth() const {
    if (Shared)
      Shared->recordSize(Impl->size());
  }

  void foldSize() const {
    if (!Shared && Impl)
      Profile.recordSize(Impl->size());
  }

  std::unique_ptr<MapImpl<K, V>> Impl;
  mutable WorkloadProfile Profile;
  mutable std::unique_ptr<SharedProfile> Shared;
  ProfileSink *Sink = nullptr;
  size_t Slot = 0;
  mutable TraceCursor Rec;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_MAPINTERFACE_H

//===- MonitoredHandle.h - Monitor core of the facades ----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monitor plumbing every collection facade shares (paper §4.3,
/// "monitor" layer): one value-semantic handle over the current variant
/// that counts critical operations into a WorkloadProfile and, when an
/// allocation context created it monitored, reports that profile exactly
/// once, when the instance finishes its life-cycle. List<T>, Set<T> and
/// Map<K, V> derive from MonitoredHandle and add only their own
/// operations; the lifecycle, the profile/trace helpers and the
/// kind-independent operations live here once (DESIGN.md §4). A handle
/// an allocation context created hands its implementation back to the
/// context's spare ring when it dies (DESIGN.md §4.4).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_MONITOREDHANDLE_H
#define CSWITCH_COLLECTIONS_DETAIL_MONITOREDHANDLE_H

#include "profile/SharedProfile.h"
#include "profile/WorkloadProfile.h"
#include "replay/TraceRecorder.h"

#include <cstddef>
#include <memory>
#include <utility>

namespace cswitch {
namespace detail {

/// Takes the implementations of dying instances back for reuse (an
/// allocation context's spare ring, DESIGN.md §4.4).
template <typename ImplT> class ImplRecycler {
public:
  /// Keeps \p Impl, emptied, for a later create, or frees it.
  virtual void recycle(std::unique_ptr<ImplT> Impl) = 0;

protected:
  ~ImplRecycler() = default;
};

/// Monitored handle over one \p ImplT (ListImpl<T>, SetImpl<T> or
/// MapImpl<K, V>). Movable, not copyable: a collection instance has one
/// identity in the profiler, and moving transfers the reporting duty.
template <typename ImplT> class MonitoredHandle {
public:
  /// An unmonitored handle over \p Impl.
  explicit MonitoredHandle(std::unique_ptr<ImplT> Impl)
      : Impl(std::move(Impl)) {}

  /// A monitored handle: \p Sink receives the workload profile for
  /// monitoring slot \p Slot when this instance dies.
  MonitoredHandle(std::unique_ptr<ImplT> Impl, ProfileSink *Sink,
                  size_t Slot)
      : Impl(std::move(Impl)), Sink(Sink), Slot(Slot) {}

  MonitoredHandle(MonitoredHandle &&Other) noexcept
      : Impl(std::move(Other.Impl)), Profile(Other.Profile),
        Shared(std::move(Other.Shared)), Sink(Other.Sink),
        Slot(Other.Slot), Rec(std::move(Other.Rec)),
        Recycler(std::exchange(Other.Recycler, nullptr)) {
    Other.Sink = nullptr;
  }

  /// Finishes the overwritten instance (report, trace end, recycle)
  /// before taking over \p Other's.
  MonitoredHandle &operator=(MonitoredHandle &&Other) noexcept {
    if (this == &Other)
      return *this;
    reportIfMonitored();
    finishTrace();
    recycleImpl();
    Impl = std::move(Other.Impl);
    Profile = Other.Profile;
    Shared = std::move(Other.Shared);
    Sink = Other.Sink;
    Slot = Other.Slot;
    Rec = std::move(Other.Rec);
    Recycler = std::exchange(Other.Recycler, nullptr);
    Other.Sink = nullptr;
    return *this;
  }

  MonitoredHandle(const MonitoredHandle &) = delete;
  MonitoredHandle &operator=(const MonitoredHandle &) = delete;

  size_t size() const { return Impl->size(); }
  bool empty() const { return Impl->empty(); }
  void clear() {
    foldSize();
    Impl->clear();
    recordOp(TraceOpKind::Clear, OpClass::None);
  }
  void reserve(size_t N) { Impl->reserve(N); }
  size_t memoryFootprint() const { return Impl->memoryFootprint(); }
  /// The variant this instance runs on (a ListVariant, SetVariant or
  /// MapVariant).
  auto variant() const { return Impl->variant(); }

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
  /// an InstanceEnd marker is recorded when this instance dies.
  void attachRecorder(TraceRecorder *Recorder, uint32_t Site,
                      uint32_t Instance) {
    Rec.attach(Recorder, Site, Instance);
  }

  /// True if this instance records into an operation trace.
  bool isTraced() const { return static_cast<bool>(Rec); }

  /// Hands the implementation to \p Spares when this instance dies or is
  /// overwritten, after the profile report and the trace end (both read
  /// its size). \p Spares must outlive this instance.
  void recycleInto(ImplRecycler<ImplT> *Spares) { Recycler = Spares; }

protected:
  ~MonitoredHandle() {
    reportIfMonitored();
    finishTrace();
    recycleImpl();
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
  // eagerly, since other owners may shrink the collection in between.
  void noteGrowth() const {
    if (Shared)
      Shared->recordSize(Impl->size());
  }

  void foldSize() const {
    if (!Shared && Impl)
      Profile.recordSize(Impl->size());
  }

  std::unique_ptr<ImplT> Impl;
  mutable WorkloadProfile Profile;
  mutable std::unique_ptr<SharedProfile> Shared;
  ProfileSink *Sink = nullptr;
  size_t Slot = 0;
  mutable TraceCursor Rec;
  ImplRecycler<ImplT> *Recycler = nullptr;

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

  void recycleImpl() {
    if (Recycler && Impl)
      Recycler->recycle(std::move(Impl));
  }
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_MONITOREDHANDLE_H

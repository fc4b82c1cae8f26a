//===- SnapshotList.h - Copy-on-write list variant --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Copy-on-write strategy of the concurrent list tier (DESIGN.md §11), a
/// CopyOnWriteArrayList analogue: the element array is an immutable
/// snapshot behind a shared_ptr. Readers — including full traversals —
/// take a shared lock only long enough to copy the snapshot pointer and
/// then observe a point-in-time consistent sequence with no lock held
/// (snapshot-on-iterate); writers serialize on a mutex, copy the array,
/// apply the mutation and publish the new snapshot under the exclusive
/// lock. The right strategy for read-mostly shared lists; every mutation
/// pays O(n).
///
/// The snapshot pointer is guarded by a shared_mutex rather than
/// std::atomic<std::shared_ptr>: readers stay parallel (shared lock for
/// a pointer copy is a single RMW), and the critical sections are in
/// terms sanitizers model natively — libstdc++'s _Sp_atomic lock-bit
/// protocol keeps the pointer word plain and trips ThreadSanitizer.
///
/// Positional reads return references into the snapshot taken at call
/// time; they are only valid until the next mutation, like every other
/// list variant.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_SNAPSHOTLIST_H
#define CSWITCH_COLLECTIONS_CONCURRENT_SNAPSHOTLIST_H

#include "collections/ListInterface.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

namespace cswitch {

/// Copy-on-write, snapshot-on-iterate list (ListVariant::SnapshotList).
template <typename T> class SnapshotListImpl : public ListImpl<T> {
  using Vec = std::vector<T, CountingAllocator<T>>;

public:
  SnapshotListImpl() : Snap(std::make_shared<const Vec>()) {}

  void push_back(const T &Value) override {
    mutate([&](Vec &Data) { Data.push_back(Value); });
  }

  void insertAt(size_t Index, const T &Value) override {
    mutate([&](Vec &Data) {
      assert(Index <= Data.size() && "insert index out of range");
      Data.insert(Data.begin() + static_cast<ptrdiff_t>(Index), Value);
    });
  }

  void removeAt(size_t Index) override {
    mutate([&](Vec &Data) {
      assert(Index < Data.size() && "remove index out of range");
      Data.erase(Data.begin() + static_cast<ptrdiff_t>(Index));
    });
  }

  bool removeValue(const T &Value) override {
    bool Found = false;
    mutate([&](Vec &Data) {
      auto It = std::find(Data.begin(), Data.end(), Value);
      if (It == Data.end())
        return;
      Found = true;
      Data.erase(It);
    });
    return Found;
  }

  const T &at(size_t Index) const override {
    std::shared_ptr<const Vec> S = snapshot();
    assert(Index < S->size() && "index out of range");
    return (*S)[Index];
  }

  void set(size_t Index, const T &Value) override {
    mutate([&](Vec &Data) {
      assert(Index < Data.size() && "index out of range");
      Data[Index] = Value;
    });
  }

  bool contains(const T &Value) const override {
    std::shared_ptr<const Vec> S = snapshot();
    return std::find(S->begin(), S->end(), Value) != S->end();
  }

  size_t size() const override { return snapshot()->size(); }

  void clear() override {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    publish(std::make_shared<const Vec>());
  }

  /// Snapshot iteration: traverses the sequence as it was at the call,
  /// unaffected by concurrent mutation, with no lock held while user
  /// code runs.
  void forEach(FunctionRef<void(const T &)> Fn) const override {
    std::shared_ptr<const Vec> S = snapshot();
    for (const T &Value : *S)
      Fn(Value);
  }

  size_t memoryFootprint() const override {
    std::shared_ptr<const Vec> S = snapshot();
    return sizeof(*this) + sizeof(Vec) + S->capacity() * sizeof(T);
  }

  ListVariant variant() const override { return ListVariant::SnapshotList; }

private:
  /// Copy the current snapshot pointer under the shared lock; traversal
  /// of the immutable array happens after the lock is released.
  std::shared_ptr<const Vec> snapshot() const {
    std::shared_lock<std::shared_mutex> Lock(SnapMutex);
    return Snap;
  }

  /// Swap in a new snapshot under the exclusive lock; the displaced
  /// array is released after the lock drops so readers never wait on a
  /// potentially O(n) destruction.
  void publish(std::shared_ptr<const Vec> Next) {
    std::shared_ptr<const Vec> Old;
    {
      std::unique_lock<std::shared_mutex> Lock(SnapMutex);
      Old = std::exchange(Snap, std::move(Next));
    }
  }

  /// Copy-mutate-publish under the writer lock. The O(n) copy and the
  /// mutation run outside SnapMutex, so readers only ever wait for the
  /// pointer swap.
  template <typename Fn> void mutate(Fn &&Apply) {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    // Only writers replace the snapshot and they hold WriteMutex, so
    // this plain read sees the latest published array.
    Vec Copy(*Snap);
    Apply(Copy);
    publish(std::make_shared<const Vec>(std::move(Copy)));
  }

  std::shared_ptr<const Vec> Snap;
  /// Guards the Snap pointer itself (not the pointed-to array, which is
  /// immutable once published).
  mutable std::shared_mutex SnapMutex;
  /// Serializes writers across the whole copy-mutate-publish cycle.
  mutable std::mutex WriteMutex;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_SNAPSHOTLIST_H

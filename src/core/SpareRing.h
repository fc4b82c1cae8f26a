//===- SpareRing.h - Spare implementations of one context -------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spare ring of a sequential allocation context (DESIGN.md §4.4):
/// up to Capacity implementations of the site's current variant, taken
/// back from dying instances, emptied with their storage kept, and
/// handed to the next create instead of a fresh heap allocation. The
/// context sets what the ring may keep — the variant, and a byte bound
/// that follows the capacity hint — and empties it whenever it sets
/// them anew.
///
/// Lock-free: every slot is one atomic pointer on its own cache line. A
/// recycler publishes a spare with a release CAS into an empty slot; a
/// creator takes it with an acquire exchange, so the emptied storage is
/// visible to whichever thread reuses it. Both start at the calling
/// cpu's slot, so threads on different cpus that create and destroy
/// through one context do not contend on a line. Those are the only
/// read-modify-writes on the two hot paths: bytes() borrows the spares
/// to measure them rather than have every recycle and take update a
/// shared counter.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_CORE_SPARERING_H
#define CSWITCH_CORE_SPARERING_H

#include "collections/detail/MonitoredHandle.h"
#include "support/Topology.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>

namespace cswitch {

/// Bounded lock-free ring of spare \p ImplT (ListImpl<T>, SetImpl<T> or
/// MapImpl<K, V>) of one variant.
template <typename ImplT>
class SpareRing final : public detail::ImplRecycler<ImplT> {
public:
  /// Spares kept at most (a power of two: slots are picked per cpu).
  static constexpr size_t Capacity = 4;

  SpareRing() = default;
  SpareRing(const SpareRing &) = delete;
  SpareRing &operator=(const SpareRing &) = delete;
  ~SpareRing() { flush(); }

  /// From now on keeps spares of variant \p Variant whose footprint is
  /// at most \p MaxBytes, and frees the ones held.
  void retain(unsigned Variant, size_t MaxBytes) {
    KeptVariant.store(Variant, std::memory_order_relaxed);
    MaxSpareBytes.store(MaxBytes, std::memory_order_relaxed);
    flush();
  }

  /// An emptied spare of variant \p Variant, or null. A spare of another
  /// variant (recycled while a switch emptied the ring) is freed.
  std::unique_ptr<ImplT> take(unsigned Variant) {
    for (size_t I = 0, Home = homeSlot(); I != Capacity; ++I) {
      std::atomic<ImplT *> &Slot = Slots[(Home + I) % Capacity].Ptr;
      if (!Slot.load(std::memory_order_relaxed))
        continue;
      std::unique_ptr<ImplT> Spare(
          Slot.exchange(nullptr, std::memory_order_acquire));
      if (!Spare)
        continue;
      if (static_cast<unsigned>(Spare->variant()) != Variant)
        return nullptr;
      return Spare;
    }
    return nullptr;
  }

  /// Keeps \p Impl, emptied, if it is of the kept variant, its
  /// footprint is within the byte bound and a slot is free; otherwise
  /// frees it.
  void recycle(std::unique_ptr<ImplT> Impl) override {
    if (static_cast<unsigned>(Impl->variant()) !=
        KeptVariant.load(std::memory_order_relaxed))
      return;
    Impl->clearForReuse();
    if (Impl->memoryFootprint() <=
        MaxSpareBytes.load(std::memory_order_relaxed))
      put(std::move(Impl));
  }

  /// Frees every spare held.
  void flush() {
    for (PaddedSlot &Slot : Slots)
      delete Slot.Ptr.exchange(nullptr, std::memory_order_acquire);
  }

  /// Bytes the held spares own (their memoryFootprint() sum). Takes each
  /// spare out while it measures it and puts it back after, so creates
  /// running meanwhile may miss a spare, never reuse one being read.
  size_t bytes() const {
    std::array<std::unique_ptr<ImplT>, Capacity> Borrowed;
    for (size_t I = 0; I != Capacity; ++I)
      Borrowed[I].reset(
          Slots[I].Ptr.exchange(nullptr, std::memory_order_acquire));
    size_t Sum = 0;
    for (std::unique_ptr<ImplT> &Spare : Borrowed)
      if (Spare) {
        Sum += Spare->memoryFootprint();
        put(std::move(Spare));
      }
    return Sum;
  }

private:
  /// Publishes \p Spare in the first empty slot, or frees it when there
  /// is none.
  void put(std::unique_ptr<ImplT> Spare) const {
    for (size_t I = 0, Home = homeSlot(); I != Capacity; ++I) {
      std::atomic<ImplT *> &Slot = Slots[(Home + I) % Capacity].Ptr;
      ImplT *Empty = nullptr;
      if (!Slot.load(std::memory_order_relaxed) &&
          Slot.compare_exchange_strong(Empty, Spare.get(),
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
        Spare.release();
        return;
      }
    }
  }

  static size_t homeSlot() { return currentCpuStripe(Capacity); }

  struct alignas(CacheLineBytes) PaddedSlot {
    std::atomic<ImplT *> Ptr{nullptr};
  };

  /// Mutable so that bytes() can borrow the spares it measures.
  mutable std::array<PaddedSlot, Capacity> Slots;
  std::atomic<unsigned> KeptVariant{0};
  std::atomic<size_t> MaxSpareBytes{0};
};

} // namespace cswitch

#endif // CSWITCH_CORE_SPARERING_H

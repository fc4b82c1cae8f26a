//===- SeqlockRing.h - Ticket-claimed seqlock slot ring ---------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one lock-free slot protocol under the framework's event log and
/// the decision ledger (DESIGN.md §6.1). A writer claims a ticket with
/// one relaxed fetch_add and publishes its payload into slot
/// `Ticket & Mask` under a per-slot version that carries the full
/// ticket: `2*T+1` while the payload of ticket T is in flux (taken by
/// compare-and-swap, so one writer holds a slot at a time), `2*T+2`
/// once it is published. A reader that expects ticket T accepts the
/// slot only when the version reads `2*T+2` both before and after
/// loading the payload (seqlock validation with Boehm's fence
/// protocol), so torn writes and overwrites are detected rather than
/// locked out, and writers never wait for readers or for each other.
///
/// The ring owns only the protocol: what to do with a slot that is not
/// (yet) readable — stop, skip or retry — is the caller's policy.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_SEQLOCKRING_H
#define CSWITCH_SUPPORT_SEQLOCKRING_H

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

// TSan does not model std::atomic_thread_fence (GCC even rejects it
// under -fsanitize=thread -Werror=tsan). Every slot word is atomic, so
// the fences below are value-ordering devices only — no non-atomic
// state is published through them — and can weaken to compiler fences
// under the sanitizer without hiding any reportable race.
#if defined(__SANITIZE_THREAD__)
#define CSWITCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CSWITCH_TSAN 1
#endif
#endif

namespace cswitch {

/// A thread fence, weakened to a signal fence under TSan (see above).
inline void orderingFence(std::memory_order Order) {
#ifdef CSWITCH_TSAN
  std::atomic_signal_fence(Order);
#else
  std::atomic_thread_fence(Order);
#endif
}

/// Outcome of reading one ticket's slot.
enum class SlotRead {
  Ok,      ///< The ticket's payload, validated.
  Pending, ///< Not published: unwritten, its writer is mid-write, or its
           ///< writer dropped it because another writer held the slot.
  Lost,    ///< Overwritten by a later ticket (before or while reading).
};

/// Fixed-capacity multi-writer ring of trivially copyable payloads.
/// Tickets are never reset; slot `Ticket & (capacity() - 1)` holds the
/// newest ticket written to it, so a ring keeps the last capacity()
/// published payloads.
template <typename T> class SeqlockRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "payloads are published word-wise through atomic slots");

public:
  /// Payload words per slot.
  static constexpr size_t NumWords =
      (sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  /// Bytes per slot: the version word plus the payload words.
  static constexpr size_t SlotBytes = (NumWords + 1) * sizeof(uint64_t);

  /// \p Capacity is rounded up to a power of two (at least 1).
  explicit SeqlockRing(size_t Capacity)
      : Mask(std::bit_ceil(Capacity ? Capacity : 1) - 1),
        Slots(std::make_unique<Slot[]>(Mask + 1)) {}

  SeqlockRing(const SeqlockRing &) = delete;
  SeqlockRing &operator=(const SeqlockRing &) = delete;

  /// Claims the next ticket: one relaxed fetch_add.
  uint64_t claim() { return Next.fetch_add(1, std::memory_order_relaxed); }

  /// Publishes \p Value as ticket \p Ticket's payload. The writer
  /// opens the slot by swapping its version from an older ticket's even
  /// version to `2*Ticket+1`; the release fence orders that before the
  /// payload stores, and the release store of `2*Ticket+2` publishes
  /// them. Opening is a compare-and-swap so that exactly one writer
  /// holds a slot at a time: a writer that finds the slot held by
  /// another writer, or already taken by a later ticket (it was lapped
  /// between claim and publish), drops its payload — readers see its
  /// ticket as Pending or Lost — instead of interleaving its words with
  /// another payload's under a version that would validate.
  void publish(uint64_t Ticket, const T &Value) {
    uint64_t Staged[NumWords] = {};
    std::memcpy(Staged, &Value, sizeof(T));
    Slot &S = Slots[Ticket & Mask];
    uint64_t Open = 2 * Ticket + 1;
    uint64_t Ver = S.Ver.load(std::memory_order_relaxed);
    do {
      if ((Ver & 1) || Ver > Open)
        return;
    } while (!S.Ver.compare_exchange_weak(Ver, Open,
                                          std::memory_order_relaxed));
    orderingFence(std::memory_order_release);
    for (size_t I = 0; I != NumWords; ++I)
      S.Words[I].store(Staged[I], std::memory_order_relaxed);
    S.Ver.store(Open + 1, std::memory_order_release);
  }

  /// Reads ticket \p Ticket's payload into \p Out (written only on Ok).
  SlotRead read(uint64_t Ticket, T &Out) const {
    const Slot &S = Slots[Ticket & Mask];
    uint64_t Expected = 2 * Ticket + 2;
    uint64_t Ver = S.Ver.load(std::memory_order_acquire);
    if (Ver != Expected)
      return Ver < Expected ? SlotRead::Pending : SlotRead::Lost;
    uint64_t Staged[NumWords];
    for (size_t I = 0; I != NumWords; ++I)
      Staged[I] = S.Words[I].load(std::memory_order_relaxed);
    orderingFence(std::memory_order_acquire);
    if (S.Ver.load(std::memory_order_relaxed) != Expected)
      return SlotRead::Lost; // overwritten while reading
    std::memcpy(&Out, Staged, sizeof(T));
    return SlotRead::Ok;
  }

  /// The next ticket claim() hands out (tickets below it are claimed).
  uint64_t next() const { return Next.load(std::memory_order_acquire); }

  /// Slot count (a power of two).
  size_t capacity() const { return Mask + 1; }

private:
  /// Power-of-two slots up to a cache line are aligned to their size,
  /// so no slot straddles two lines.
  static constexpr size_t SlotAlign =
      std::has_single_bit(SlotBytes) && SlotBytes <= 64 ? SlotBytes
                                                        : alignof(uint64_t);

  struct alignas(SlotAlign) Slot {
    std::atomic<uint64_t> Ver{0};
    std::atomic<uint64_t> Words[NumWords] = {};
  };

  size_t Mask;
  std::unique_ptr<Slot[]> Slots;
  /// The ticket counter every writer hammers gets its own cache line,
  /// so Mask and Slots stay read-shared: a writer that re-reads them
  /// after claim() does not miss on a line another writer just took.
  alignas(64) std::atomic<uint64_t> Next{0};
};

} // namespace cswitch

#endif // CSWITCH_SUPPORT_SEQLOCKRING_H

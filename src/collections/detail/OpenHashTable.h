//===- OpenHashTable.h - Open-addressing tables (internal) ------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Group-probed (SwissTable-style) open-addressing hash tables shared by
/// the open-hash and compact-hash set/map variants, the hash-bag index of
/// the hash-indexed lists (HashBag.h) and the concurrent tier. The
/// maximum load factor is a template parameter: the fast variants probe a
/// half-empty table (Koloboke-like), the compact variants a 7/8-full one
/// (memory-efficient but slower near capacity) — giving the framework
/// genuinely different points on the time/space trade-off curve, as the
/// paper's multi-library candidate set does.
///
/// Layout: one counted allocation per capacity `Cap` (a power of two,
/// at least 8) holding the key slots, the value slots (maps, HashBag), then
/// `Cap + 15` signed control bytes — `Cap·(Σsizeof + 1) + 15` bytes in
/// all. A control byte is CtrlEmpty (0x80), CtrlDeleted (0xFE) or, for a
/// full slot, a 7-bit tag from hash bits 57–63. The tag bits are disjoint
/// from the low bits that pick the home slot and from the bits 32–37 that
/// shardOfHash() uses, so the keys of one shard do not share a tag. The
/// first 15 control bytes are cloned past the end, so the 16-byte window
/// at every slot can be loaded, even when the table is smaller than a
/// group. Lookups scan a window per step (one SSE2 compare and movemask),
/// compare keys only on tag matches, and stop at a window with an empty
/// slot; windows follow a triangular probe sequence, which visits every
/// slot. Erase leaves a tombstone. Growth is checked before every insert
/// against full + tombstone slots and doubles only while the live count
/// needs it, so a table clogged by tombstones is purged at the same
/// capacity. Internal to the collections library.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_OPENHASHTABLE_H
#define CSWITCH_COLLECTIONS_DETAIL_OPENHASHTABLE_H

#include "support/FunctionRef.h"
#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace cswitch {
namespace detail {

/// Control byte of a slot that was never used.
inline constexpr int8_t CtrlEmpty = static_cast<int8_t>(0x80);
/// Control byte of an erased slot (a tombstone).
inline constexpr int8_t CtrlDeleted = static_cast<int8_t>(0xFE);
/// Slots scanned per probe step.
inline constexpr size_t GroupWidth = 16;
/// Control bytes cloned past the end so that every window can be loaded.
inline constexpr size_t ClonedCtrlBytes = GroupWidth - 1;

/// Control byte of a full slot for a key with hash \p Hash: bits 57–63.
inline int8_t ctrlTag(uint64_t Hash) { return static_cast<int8_t>(Hash >> 57); }

/// Portable 16-slot window. In every mask, bit I stands for slot I of the
/// window.
class ScalarGroup {
public:
  explicit ScalarGroup(const int8_t *Ctrl) {
    std::memcpy(Bytes, Ctrl, GroupWidth);
  }

  /// Slots whose control byte is \p Tag.
  uint32_t match(int8_t Tag) const {
    uint32_t Mask = 0;
    for (size_t I = 0; I != GroupWidth; ++I)
      Mask |= uint32_t(Bytes[I] == Tag) << I;
    return Mask;
  }

  uint32_t matchEmpty() const { return match(CtrlEmpty); }

  /// Empty and deleted slots: the control bytes with the sign bit set.
  uint32_t matchFree() const {
    uint32_t Mask = 0;
    for (size_t I = 0; I != GroupWidth; ++I)
      Mask |= uint32_t(Bytes[I] < 0) << I;
    return Mask;
  }

private:
  int8_t Bytes[GroupWidth];
};

#ifdef __SSE2__
/// SSE2 16-slot window: one compare and one movemask per query.
class SseGroup {
public:
  explicit SseGroup(const int8_t *Ctrl)
      : Bytes(_mm_loadu_si128(reinterpret_cast<const __m128i *>(Ctrl))) {}

  uint32_t match(int8_t Tag) const {
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_set1_epi8(Tag), Bytes)));
  }

  uint32_t matchEmpty() const { return match(CtrlEmpty); }

  uint32_t matchFree() const {
    return static_cast<uint32_t>(_mm_movemask_epi8(Bytes));
  }

private:
  __m128i Bytes;
};

using Group = SseGroup;
#else
using Group = ScalarGroup;
#endif

/// Storage, probing and growth shared by OpenHashSetTable,
/// OpenHashMapTable and HashBag; \p V is void for sets.
template <typename K, typename V, unsigned LoadNum, unsigned LoadDen,
          typename Hash>
class GroupProbedTable {
public:
  /// Slots of the first allocation; no table allocates fewer.
  static constexpr size_t InitialCapacity = 8;

private:
  static constexpr bool HasValues = !std::is_void_v<V>;
  using ValueT = std::conditional_t<HasValues, V, char>;
  static constexpr size_t ValueBytes = HasValues ? sizeof(ValueT) : 0;

  // The slot arrays sit back to back in one allocation from operator new.
  static_assert(alignof(K) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                    alignof(ValueT) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "over-aligned slots");
  static_assert((InitialCapacity * sizeof(K)) % alignof(ValueT) == 0,
                "value slots would be misaligned");

public:
  GroupProbedTable() = default;
  GroupProbedTable(const GroupProbedTable &) = delete;
  GroupProbedTable &operator=(const GroupProbedTable &) = delete;

  GroupProbedTable(GroupProbedTable &&Other) noexcept { steal(Other); }

  GroupProbedTable &operator=(GroupProbedTable &&Other) noexcept {
    if (this != &Other) {
      release();
      steal(Other);
    }
    return *this;
  }

  ~GroupProbedTable() { release(); }

  size_t size() const { return Count; }

  /// Slot count (0 before the first insert and after clear()).
  size_t capacity() const { return Cap; }

  /// Removes every element and releases the storage.
  void clear() { release(); }

  /// Removes every element and keeps the storage: capacity() stays, and
  /// the tombstones go with the elements.
  void clearKeepingStorage() {
    if (!Slots)
      return;
    destroyElements();
    std::memset(Ctrl, static_cast<unsigned char>(CtrlEmpty),
                Cap + ClonedCtrlBytes);
    Count = Occupied = 0;
  }

  /// Presizes for \p N elements; reserve(0) allocates nothing.
  void reserve(size_t N) {
    if (N == 0)
      return;
    size_t Needed = requiredCapacity(N);
    if (Needed > Cap)
      rehash(Needed);
  }

  /// Bytes owned by the table, excluding sizeof(*this).
  size_t memoryFootprint() const { return Cap ? allocationBytes(Cap) : 0; }

  /// Bytes reserve(\p N) allocates on an empty table.
  static size_t bytesFor(size_t N) {
    return N ? allocationBytes(requiredCapacity(N)) : 0;
  }

  bool erase(const K &Key) {
    size_t Index = findIndex(Key);
    if (Index == NotFound)
      return false;
    eraseIndex(Index);
    return true;
  }

protected:
  static constexpr size_t NotFound = SIZE_MAX;

  K *keys() const { return reinterpret_cast<K *>(Slots); }
  ValueT *values() const {
    return reinterpret_cast<ValueT *>(Slots + Cap * sizeof(K));
  }

  size_t findIndex(const K &Key) const {
    if (Count == 0)
      return NotFound;
    uint64_t H = Hash{}(Key);
    int8_t Tag = ctrlTag(H);
    size_t Mask = Cap - 1;
    for (size_t Pos = H & Mask, Step = GroupWidth;;
         Pos = (Pos + Step) & Mask, Step += GroupWidth) {
      Group G(Ctrl + Pos);
      for (uint32_t M = G.match(Tag); M; M &= M - 1) {
        size_t Index = (Pos + std::countr_zero(M)) & Mask;
        if (keys()[Index] == Key)
          return Index;
      }
      if (G.matchEmpty())
        return NotFound;
    }
  }

  /// Returns the slot of \p Key and false if it is present. Otherwise
  /// claims the first free slot on its probe path, calls \p Construct
  /// with it to build the key (and value) there, and returns it and true.
  /// Growth is checked first, so inserting a present key can also grow.
  template <typename ConstructFn>
  std::pair<size_t, bool> findOrInsert(const K &Key, ConstructFn Construct) {
    growIfNeeded(1);
    uint64_t H = Hash{}(Key);
    int8_t Tag = ctrlTag(H);
    size_t Mask = Cap - 1;
    size_t Target = NotFound;
    for (size_t Pos = H & Mask, Step = GroupWidth;;
         Pos = (Pos + Step) & Mask, Step += GroupWidth) {
      Group G(Ctrl + Pos);
      for (uint32_t M = G.match(Tag); M; M &= M - 1) {
        size_t Index = (Pos + std::countr_zero(M)) & Mask;
        if (keys()[Index] == Key)
          return {Index, false};
      }
      if (Target == NotFound)
        if (uint32_t Free = G.matchFree())
          Target = (Pos + std::countr_zero(Free)) & Mask;
      if (G.matchEmpty())
        break;
    }
    Construct(Target);
    if (Ctrl[Target] == CtrlEmpty)
      ++Occupied;
    setCtrl(Target, Tag);
    ++Count;
    return {Target, true};
  }

  /// Destroys the element in full slot \p Index and leaves a tombstone,
  /// for callers that already hold the slot from findIndex().
  void eraseIndex(size_t Index) {
    destroySlot(Index);
    setCtrl(Index, CtrlDeleted);
    --Count;
  }

  /// Calls \p Fn with the index of every full slot, in slot order.
  template <typename IndexFn> void forEachIndex(IndexFn Fn) const {
    uint32_t Window = Cap < GroupWidth ? (1u << Cap) - 1 : 0xFFFF;
    for (size_t Pos = 0; Pos < Cap; Pos += GroupWidth)
      for (uint32_t M = ~Group(Ctrl + Pos).matchFree() & Window; M;
           M &= M - 1)
        Fn(Pos + std::countr_zero(M));
  }

private:
  static size_t requiredCapacity(size_t Elements) {
    // Smallest power of two with Elements <= capacity * LoadNum/LoadDen.
    size_t Capacity = InitialCapacity;
    while (Capacity * LoadNum < Elements * LoadDen)
      Capacity *= 2;
    return Capacity;
  }

  static size_t allocationBytes(size_t Capacity) {
    return Capacity * (sizeof(K) + ValueBytes + 1) + ClonedCtrlBytes;
  }

  void growIfNeeded(size_t Additional) {
    if (Cap == 0) {
      rehash(InitialCapacity);
      return;
    }
    if ((Occupied + Additional) * LoadDen <= Cap * LoadNum)
      return;
    // Double only while the live count needs it; a same-size rehash
    // purges tombstones without inflating the footprint.
    size_t NewCapacity = Cap;
    while ((Count + Additional) * LoadDen > NewCapacity * LoadNum)
      NewCapacity *= 2;
    rehash(NewCapacity);
  }

  /// Sets slot \p Index's control byte and its clones past the end.
  void setCtrl(size_t Index, int8_t C) {
    Ctrl[Index] = C;
    for (size_t I = Index + Cap; I < Cap + ClonedCtrlBytes; I += Cap)
      Ctrl[I] = C;
  }

  void destroySlot(size_t Index) {
    keys()[Index].~K();
    if constexpr (HasValues)
      values()[Index].~V();
  }

  /// Moves every element into fresh storage of \p NewCapacity slots. Keys
  /// are distinct, so each goes to the first free slot on its path.
  void rehash(size_t NewCapacity) {
    assert((NewCapacity & (NewCapacity - 1)) == 0 && "capacity not pow2");
    GroupProbedTable Old(std::move(*this));
    Slots = CountingAllocator<unsigned char>().allocate(
        allocationBytes(NewCapacity));
    Cap = NewCapacity;
    Ctrl = reinterpret_cast<int8_t *>(Slots + Cap * (sizeof(K) + ValueBytes));
    std::memset(Ctrl, static_cast<unsigned char>(CtrlEmpty),
                Cap + ClonedCtrlBytes);
    Count = Occupied = Old.Count;
    size_t Mask = Cap - 1;
    Old.forEachIndex([&](size_t From) {
      uint64_t H = Hash{}(Old.keys()[From]);
      size_t Pos = H & Mask;
      uint32_t Free;
      for (size_t Step = GroupWidth; !(Free = Group(Ctrl + Pos).matchFree());
           Step += GroupWidth)
        Pos = (Pos + Step) & Mask;
      size_t To = (Pos + std::countr_zero(Free)) & Mask;
      new (keys() + To) K(std::move(Old.keys()[From]));
      if constexpr (HasValues)
        new (values() + To) V(std::move(Old.values()[From]));
      setCtrl(To, ctrlTag(H));
    });
  }

  void steal(GroupProbedTable &Other) {
    Slots = std::exchange(Other.Slots, nullptr);
    Ctrl = std::exchange(Other.Ctrl, nullptr);
    Cap = std::exchange(Other.Cap, 0);
    Count = std::exchange(Other.Count, 0);
    Occupied = std::exchange(Other.Occupied, 0);
  }

  void destroyElements() {
    if constexpr (!std::is_trivially_destructible_v<K> ||
                  !std::is_trivially_destructible_v<ValueT>)
      forEachIndex([this](size_t Index) { destroySlot(Index); });
  }

  void release() {
    if (!Slots)
      return;
    destroyElements();
    CountingAllocator<unsigned char>().deallocate(Slots, allocationBytes(Cap));
    Slots = nullptr;
    Ctrl = nullptr;
    Cap = Count = Occupied = 0;
  }

  unsigned char *Slots = nullptr; ///< Keys, then values, then Ctrl.
  int8_t *Ctrl = nullptr;         ///< Cap + ClonedCtrlBytes bytes.
  size_t Cap = 0;
  size_t Count = 0;    ///< Full slots.
  size_t Occupied = 0; ///< Full + tombstone slots.
};

/// Open-addressing set of T.
///
/// \tparam LoadNum / \tparam LoadDen maximum load factor as a fraction;
/// growth keeps full+tombstone slots at or below it.
template <typename T, unsigned LoadNum, unsigned LoadDen,
          typename Hash = DefaultHash<T>>
class OpenHashSetTable
    : public GroupProbedTable<T, void, LoadNum, LoadDen, Hash> {
  using Base = GroupProbedTable<T, void, LoadNum, LoadDen, Hash>;

public:
  bool insert(const T &Value) {
    auto Construct = [&](size_t I) { new (this->keys() + I) T(Value); };
    return this->findOrInsert(Value, Construct).second;
  }

  bool contains(const T &Value) const {
    return this->findIndex(Value) != Base::NotFound;
  }

  void forEach(FunctionRef<void(const T &)> Fn) const {
    this->forEachIndex([&](size_t I) { Fn(this->keys()[I]); });
  }
};

/// Open-addressing map of K -> V.
template <typename K, typename V, unsigned LoadNum, unsigned LoadDen,
          typename Hash = DefaultHash<K>>
class OpenHashMapTable
    : public GroupProbedTable<K, V, LoadNum, LoadDen, Hash> {
  using Base = GroupProbedTable<K, V, LoadNum, LoadDen, Hash>;

public:
  /// Returns true if the key was new.
  bool insertOrAssign(const K &Key, const V &Value) {
    auto [Index, Inserted] = this->findOrInsert(Key, [&](size_t I) {
      new (this->keys() + I) K(Key);
      new (this->values() + I) V(Value);
    });
    if (!Inserted)
      this->values()[Index] = Value;
    return Inserted;
  }

  const V *find(const K &Key) const {
    size_t Index = this->findIndex(Key);
    return Index == Base::NotFound ? nullptr : this->values() + Index;
  }

  V *findMutable(const K &Key) {
    return const_cast<V *>(
        static_cast<const OpenHashMapTable *>(this)->find(Key));
  }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const {
    this->forEachIndex(
        [&](size_t I) { Fn(this->keys()[I], this->values()[I]); });
  }
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_OPENHASHTABLE_H

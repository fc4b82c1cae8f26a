//===- HashBag.h - Chained hash multiset (internal) -------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chained-hash multiset used as the lookup index of HashArrayList —
/// the paper's "ArrayList + HashBag for faster lookups" variant (Table 2).
/// Internal to the collections library; not part of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H
#define CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H

#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace cswitch {
namespace detail {

/// A multiset of T backed by a chained hash table of (value, count) nodes.
template <typename T, typename Hash = DefaultHash<T>> class HashBag {
  struct Node {
    T Value;
    uint32_t Count;
    Node *Next;
  };

public:
  HashBag() = default;

  HashBag(const HashBag &) = delete;
  HashBag &operator=(const HashBag &) = delete;

  ~HashBag() { clear(); }

  /// Adds one occurrence of \p Value.
  void addOne(const T &Value) {
    if (Buckets.empty())
      rehash(InitialBuckets);
    size_t Index = bucketIndex(Value);
    for (Node *N = Buckets[Index]; N; N = N->Next) {
      if (N->Value == Value) {
        ++N->Count;
        return;
      }
    }
    Node *N = newCounted<Node>(Node{Value, 1, Buckets[Index]});
    Buckets[Index] = N;
    ++DistinctCount;
    if (DistinctCount * 4 > Buckets.size() * 3)
      rehash(Buckets.size() * 2);
  }

  /// Removes one occurrence of \p Value; returns false if absent.
  bool removeOne(const T &Value) {
    if (Buckets.empty())
      return false;
    size_t Index = bucketIndex(Value);
    Node **Link = &Buckets[Index];
    while (Node *N = *Link) {
      if (N->Value == Value) {
        if (--N->Count == 0) {
          *Link = N->Next;
          deleteCounted(N);
          --DistinctCount;
        }
        return true;
      }
      Link = &N->Next;
    }
    return false;
  }

  /// Returns true if at least one occurrence of \p Value is present.
  bool contains(const T &Value) const {
    if (Buckets.empty())
      return false;
    for (const Node *N = Buckets[bucketIndex(Value)]; N; N = N->Next)
      if (N->Value == Value)
        return true;
    return false;
  }

  /// Presizes the table for \p N distinct values.
  void reserve(size_t N) {
    if (N == 0)
      return;
    size_t Needed = chainedBucketCount(N, InitialBuckets);
    if (Needed > Buckets.size())
      rehash(Needed);
  }

  /// Number of distinct values held.
  size_t distinctSize() const { return DistinctCount; }

  /// Removes everything and releases the table.
  void clear() {
    for (Node *Head : Buckets) {
      while (Head) {
        Node *Next = Head->Next;
        deleteCounted(Head);
        Head = Next;
      }
    }
    Buckets.clear();
    Buckets.shrink_to_fit();
    DistinctCount = 0;
  }

  /// Bytes owned by the bag (bucket array + nodes), excluding sizeof(*this).
  size_t memoryFootprint() const {
    return Buckets.capacity() * sizeof(Node *) +
           DistinctCount * sizeof(Node);
  }

private:
  static constexpr size_t InitialBuckets = 16;

  size_t bucketIndex(const T &Value) const {
    return Hash{}(Value) & (Buckets.size() - 1);
  }

  void rehash(size_t NewBucketCount) {
    assert((NewBucketCount & (NewBucketCount - 1)) == 0 &&
           "bucket count must be a power of two");
    std::vector<Node *, CountingAllocator<Node *>> Old(std::move(Buckets));
    Buckets.assign(NewBucketCount, nullptr);
    for (Node *Head : Old) {
      while (Head) {
        Node *Next = Head->Next;
        size_t Index = Hash{}(Head->Value) & (NewBucketCount - 1);
        Head->Next = Buckets[Index];
        Buckets[Index] = Head;
        Head = Next;
      }
    }
  }

  std::vector<Node *, CountingAllocator<Node *>> Buckets;
  size_t DistinctCount = 0;
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H

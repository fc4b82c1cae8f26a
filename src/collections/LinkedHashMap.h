//===- LinkedHashMap.h - Insertion-ordered hash map variant ------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The insertion-ordered chained hash map variant, analogue of JDK
/// LinkedHashMap: constant-time access plus deterministic iteration
/// order, at two extra pointers per entry (the paper's §2 example of a
/// collection combining two representations).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_LINKEDHASHMAP_H
#define CSWITCH_COLLECTIONS_LINKEDHASHMAP_H

#include "collections/MapInterface.h"
#include "collections/detail/NodeCache.h"
#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace cswitch {

/// Insertion-ordered separate-chaining MapImpl.
template <typename K, typename V, typename Hash = DefaultHash<K>>
class LinkedHashMapImpl final : public MapImpl<K, V> {
  struct Node {
    K Key;
    V Value;
    uint64_t HashValue;
    Node *Next;   ///< Bucket chain.
    Node *Before; ///< Insertion order.
    Node *After;  ///< Insertion order.
  };

public:
  LinkedHashMapImpl() = default;

  LinkedHashMapImpl(const LinkedHashMapImpl &) = delete;
  LinkedHashMapImpl &operator=(const LinkedHashMapImpl &) = delete;

  ~LinkedHashMapImpl() override { clear(); }

  bool put(const K &Key, const V &Value) override {
    if (Buckets.empty())
      rehash(InitialBuckets);
    uint64_t H = Hash{}(Key);
    size_t Index = H & (Buckets.size() - 1);
    for (Node *N = Buckets[Index]; N; N = N->Next) {
      if (N->HashValue == H && N->Key == Key) {
        N->Value = Value;
        return false;
      }
    }
    Node *N = Nodes.make(Node{Key, Value, H, Buckets[Index], Tail, nullptr});
    Buckets[Index] = N;
    if (Tail)
      Tail->After = N;
    else
      Head = N;
    Tail = N;
    ++Count;
    if (Count * 4 > Buckets.size() * 3)
      rehash(Buckets.size() * 2);
    return true;
  }

  const V *get(const K &Key) const override {
    if (Buckets.empty())
      return nullptr;
    uint64_t H = Hash{}(Key);
    for (const Node *N = Buckets[H & (Buckets.size() - 1)]; N; N = N->Next)
      if (N->HashValue == H && N->Key == Key)
        return &N->Value;
    return nullptr;
  }

  V *getMutable(const K &Key) override {
    return const_cast<V *>(
        static_cast<const LinkedHashMapImpl *>(this)->get(Key));
  }

  bool containsKey(const K &Key) const override {
    return get(Key) != nullptr;
  }

  bool remove(const K &Key) override {
    if (Buckets.empty())
      return false;
    uint64_t H = Hash{}(Key);
    Node **Link = &Buckets[H & (Buckets.size() - 1)];
    while (Node *N = *Link) {
      if (N->HashValue == H && N->Key == Key) {
        *Link = N->Next;
        unlinkOrder(N);
        deleteCounted(N);
        --Count;
        return true;
      }
      Link = &N->Next;
    }
    return false;
  }

  size_t size() const override { return Count; }

  void clear() override {
    Node *N = Head;
    while (N) {
      Node *Next = N->After;
      deleteCounted(N);
      N = Next;
    }
    Buckets.clear();
    Buckets.shrink_to_fit();
    Nodes.release();
    Head = Tail = nullptr;
    Count = 0;
  }

  /// Parks every node and keeps the bucket array.
  void clearForReuse() override {
    Nodes.parkChain(Head, &Node::After);
    std::fill(Buckets.begin(), Buckets.end(), nullptr);
    Head = Tail = nullptr;
    Count = 0;
  }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    for (const Node *N = Head; N; N = N->After)
      Fn(N->Key, N->Value);
  }

  void reserve(size_t N, size_t = 0) override {
    if (N == 0)
      return;
    size_t Needed = chainedBucketCount(N, InitialBuckets);
    if (Needed > Buckets.size())
      rehash(Needed);
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Buckets.capacity() * sizeof(Node *) +
           Nodes.bytesFor(Count) + Nodes.bytes();
  }

  size_t unreservedBytes(size_t N) const override {
    return Nodes.bytesFor(N);
  }

  MapVariant variant() const override { return MapVariant::LinkedHashMap; }

private:
  static constexpr size_t InitialBuckets = 16;

  void unlinkOrder(Node *N) {
    if (N->Before)
      N->Before->After = N->After;
    else
      Head = N->After;
    if (N->After)
      N->After->Before = N->Before;
    else
      Tail = N->Before;
  }

  void rehash(size_t NewBucketCount) {
    assert((NewBucketCount & (NewBucketCount - 1)) == 0 &&
           "bucket count must be a power of two");
    Buckets.assign(NewBucketCount, nullptr);
    for (Node *N = Head; N; N = N->After) {
      size_t Index = N->HashValue & (NewBucketCount - 1);
      N->Next = Buckets[Index];
      Buckets[Index] = N;
    }
  }

  std::vector<Node *, CountingAllocator<Node *>> Buckets;
  detail::NodeCache<Node> Nodes;
  Node *Head = nullptr;
  Node *Tail = nullptr;
  size_t Count = 0;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_LINKEDHASHMAP_H

//===- ChainedHashMap.h - Chained hash map variant ---------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chained (separate chaining) hash map variant, analogue of JDK
/// HashMap: per-entry node allocation with a cached hash, 0.75 maximum
/// load factor. The default map most Java code uses — and therefore the
/// variant the paper's DaCapo experiments most often replace (Table 6:
/// HM → OpenHashMap / AdaptiveMap).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CHAINEDHASHMAP_H
#define CSWITCH_COLLECTIONS_CHAINEDHASHMAP_H

#include "collections/MapInterface.h"
#include "collections/detail/NodeCache.h"
#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <cassert>
#include <vector>

namespace cswitch {

/// Separate-chaining MapImpl.
template <typename K, typename V, typename Hash = DefaultHash<K>>
class ChainedHashMapImpl final : public MapImpl<K, V> {
  struct Node {
    K Key;
    V Value;
    uint64_t HashValue;
    Node *Next;
  };

public:
  ChainedHashMapImpl() = default;

  ChainedHashMapImpl(const ChainedHashMapImpl &) = delete;
  ChainedHashMapImpl &operator=(const ChainedHashMapImpl &) = delete;

  ~ChainedHashMapImpl() override { clear(); }

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
    Buckets[Index] = Nodes.make(Node{Key, Value, H, Buckets[Index]});
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
        static_cast<const ChainedHashMapImpl *>(this)->get(Key));
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
    for (Node *Head : Buckets) {
      while (Head) {
        Node *Next = Head->Next;
        deleteCounted(Head);
        Head = Next;
      }
    }
    Buckets.clear();
    Buckets.shrink_to_fit();
    Nodes.release();
    Count = 0;
  }

  /// Parks every node and keeps the bucket array.
  void clearForReuse() override {
    for (Node *&Head : Buckets) {
      Nodes.parkChain(Head, &Node::Next);
      Head = nullptr;
    }
    Count = 0;
  }

  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    for (const Node *Head : Buckets)
      for (const Node *N = Head; N; N = N->Next)
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

  MapVariant variant() const override { return MapVariant::ChainedHashMap; }

private:
  static constexpr size_t InitialBuckets = 16;

  void rehash(size_t NewBucketCount) {
    assert((NewBucketCount & (NewBucketCount - 1)) == 0 &&
           "bucket count must be a power of two");
    std::vector<Node *, CountingAllocator<Node *>> Old(std::move(Buckets));
    Buckets.assign(NewBucketCount, nullptr);
    for (Node *Head : Old) {
      while (Head) {
        Node *Next = Head->Next;
        size_t Index = Head->HashValue & (NewBucketCount - 1);
        Head->Next = Buckets[Index];
        Buckets[Index] = Head;
        Head = Next;
      }
    }
  }

  std::vector<Node *, CountingAllocator<Node *>> Buckets;
  detail::NodeCache<Node> Nodes;
  size_t Count = 0;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CHAINEDHASHMAP_H

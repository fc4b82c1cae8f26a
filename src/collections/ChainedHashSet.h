//===- ChainedHashSet.h - Chained hash set variant ---------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chained (separate chaining) hash set variant, analogue of JDK
/// HashSet: per-element node allocation with a cached hash, 0.75 maximum
/// load factor. O(1) expected operations but pointer-chasing lookups and
/// the highest per-element memory overhead of the hash variants — the
/// profile that makes open-addressing and adaptive variants attractive
/// replacements in the paper's DaCapo results (Table 6).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CHAINEDHASHSET_H
#define CSWITCH_COLLECTIONS_CHAINEDHASHSET_H

#include "collections/SetInterface.h"
#include "collections/detail/NodeCache.h"
#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <cassert>
#include <vector>

namespace cswitch {

/// Separate-chaining SetImpl.
template <typename T, typename Hash = DefaultHash<T>>
class ChainedHashSetImpl final : public SetImpl<T> {
  struct Node {
    T Value;
    uint64_t HashValue; ///< Cached so rehash never re-hashes elements.
    Node *Next;
  };

public:
  ChainedHashSetImpl() = default;

  ChainedHashSetImpl(const ChainedHashSetImpl &) = delete;
  ChainedHashSetImpl &operator=(const ChainedHashSetImpl &) = delete;

  ~ChainedHashSetImpl() override { clear(); }

  bool add(const T &Value) override {
    if (Buckets.empty())
      rehash(InitialBuckets);
    uint64_t H = Hash{}(Value);
    size_t Index = H & (Buckets.size() - 1);
    for (Node *N = Buckets[Index]; N; N = N->Next)
      if (N->HashValue == H && N->Value == Value)
        return false;
    Buckets[Index] = Nodes.make(Node{Value, H, Buckets[Index]});
    ++Count;
    if (Count * 4 > Buckets.size() * 3)
      rehash(Buckets.size() * 2);
    return true;
  }

  bool contains(const T &Value) const override {
    if (Buckets.empty())
      return false;
    uint64_t H = Hash{}(Value);
    for (const Node *N = Buckets[H & (Buckets.size() - 1)]; N; N = N->Next)
      if (N->HashValue == H && N->Value == Value)
        return true;
    return false;
  }

  bool remove(const T &Value) override {
    if (Buckets.empty())
      return false;
    uint64_t H = Hash{}(Value);
    Node **Link = &Buckets[H & (Buckets.size() - 1)];
    while (Node *N = *Link) {
      if (N->HashValue == H && N->Value == Value) {
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

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    for (const Node *Head : Buckets)
      for (const Node *N = Head; N; N = N->Next)
        Fn(N->Value);
  }

  void reserve(size_t N) override {
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

  SetVariant variant() const override { return SetVariant::ChainedHashSet; }

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

#endif // CSWITCH_COLLECTIONS_CHAINEDHASHSET_H

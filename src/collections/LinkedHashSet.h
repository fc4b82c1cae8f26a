//===- LinkedHashSet.h - Insertion-ordered hash set variant ------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The insertion-ordered chained hash set variant, analogue of JDK
/// LinkedHashSet: a chained hash table whose nodes are additionally
/// threaded on a doubly-linked order list. Pays two extra pointers per
/// element for deterministic iteration order — the memory-heaviest set in
/// the candidate pool, and therefore the variant the Ralloc rule most
/// eagerly replaces.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_LINKEDHASHSET_H
#define CSWITCH_COLLECTIONS_LINKEDHASHSET_H

#include "collections/SetInterface.h"
#include "collections/detail/NodeCache.h"
#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace cswitch {

/// Insertion-ordered separate-chaining SetImpl.
template <typename T, typename Hash = DefaultHash<T>>
class LinkedHashSetImpl final : public SetImpl<T> {
  struct Node {
    T Value;
    uint64_t HashValue;
    Node *Next;   ///< Bucket chain.
    Node *Before; ///< Insertion order.
    Node *After;  ///< Insertion order.
  };

public:
  LinkedHashSetImpl() = default;

  LinkedHashSetImpl(const LinkedHashSetImpl &) = delete;
  LinkedHashSetImpl &operator=(const LinkedHashSetImpl &) = delete;

  ~LinkedHashSetImpl() override { clear(); }

  bool add(const T &Value) override {
    if (Buckets.empty())
      rehash(InitialBuckets);
    uint64_t H = Hash{}(Value);
    size_t Index = H & (Buckets.size() - 1);
    for (Node *N = Buckets[Index]; N; N = N->Next)
      if (N->HashValue == H && N->Value == Value)
        return false;
    Node *N = Nodes.make(Node{Value, H, Buckets[Index], Tail, nullptr});
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

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    for (const Node *N = Head; N; N = N->After)
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

  SetVariant variant() const override { return SetVariant::LinkedHashSet; }

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
    // Rebuild the bucket chains by walking the order list; order links
    // are untouched.
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

#endif // CSWITCH_COLLECTIONS_LINKEDHASHSET_H

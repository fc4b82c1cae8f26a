//===- LinkedList.h - Doubly-linked list variant ----------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The doubly-linked list variant: O(1) append and end removal, O(n)
/// positional access (walking from the nearer end, as JDK LinkedList
/// does), per-node allocation overhead. Analogue of JDK LinkedList in the
/// paper's Table 2. Its niche is interior insert/remove once the position
/// is reached; its pathology is index access — exactly the trade-offs the
/// multi-phase experiment (Fig. 6) exercises.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_LINKEDLIST_H
#define CSWITCH_COLLECTIONS_LINKEDLIST_H

#include "collections/ListInterface.h"
#include "collections/detail/NodeCache.h"
#include "support/MemoryTracker.h"

#include <cassert>

namespace cswitch {

/// Doubly-linked ListImpl.
template <typename T> class LinkedListImpl final : public ListImpl<T> {
  struct Node {
    T Value;
    Node *Prev;
    Node *Next;
  };

public:
  LinkedListImpl() = default;

  LinkedListImpl(const LinkedListImpl &) = delete;
  LinkedListImpl &operator=(const LinkedListImpl &) = delete;

  ~LinkedListImpl() override { clear(); }

  void push_back(const T &Value) override {
    Node *N = Nodes.make(Node{Value, Tail, nullptr});
    if (Tail)
      Tail->Next = N;
    else
      Head = N;
    Tail = N;
    ++Count;
  }

  void insertAt(size_t Index, const T &Value) override {
    assert(Index <= Count && "insert index out of range");
    if (Index == Count) {
      push_back(Value);
      return;
    }
    Node *At = nodeAt(Index);
    Node *N = Nodes.make(Node{Value, At->Prev, At});
    if (At->Prev)
      At->Prev->Next = N;
    else
      Head = N;
    At->Prev = N;
    ++Count;
  }

  void removeAt(size_t Index) override {
    assert(Index < Count && "remove index out of range");
    unlink(nodeAt(Index));
  }

  bool removeValue(const T &Value) override {
    for (Node *N = Head; N; N = N->Next) {
      if (N->Value == Value) {
        unlink(N);
        return true;
      }
    }
    return false;
  }

  const T &at(size_t Index) const override {
    assert(Index < Count && "index out of range");
    return nodeAt(Index)->Value;
  }

  void set(size_t Index, const T &Value) override {
    assert(Index < Count && "index out of range");
    nodeAt(Index)->Value = Value;
  }

  bool contains(const T &Value) const override {
    for (const Node *N = Head; N; N = N->Next)
      if (N->Value == Value)
        return true;
    return false;
  }

  size_t size() const override { return Count; }

  void clear() override {
    Node *N = Head;
    while (N) {
      Node *Next = N->Next;
      deleteCounted(N);
      N = Next;
    }
    Nodes.release();
    Head = Tail = nullptr;
    Count = 0;
  }

  /// Parks every node.
  void clearForReuse() override {
    Nodes.parkChain(Head, &Node::Next);
    Head = Tail = nullptr;
    Count = 0;
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    for (const Node *N = Head; N; N = N->Next)
      Fn(N->Value);
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Nodes.bytesFor(Count) + Nodes.bytes();
  }

  size_t unreservedBytes(size_t N) const override {
    return Nodes.bytesFor(N);
  }

  ListVariant variant() const override { return ListVariant::LinkedList; }

private:
  /// Walks to \p Index from whichever end is closer (JDK-style).
  Node *nodeAt(size_t Index) const {
    assert(Index < Count && "index out of range");
    if (Index < Count / 2) {
      Node *N = Head;
      for (size_t I = 0; I != Index; ++I)
        N = N->Next;
      return N;
    }
    Node *N = Tail;
    for (size_t I = Count - 1; I != Index; --I)
      N = N->Prev;
    return N;
  }

  void unlink(Node *N) {
    if (N->Prev)
      N->Prev->Next = N->Next;
    else
      Head = N->Next;
    if (N->Next)
      N->Next->Prev = N->Prev;
    else
      Tail = N->Prev;
    deleteCounted(N);
    --Count;
  }

  detail::NodeCache<Node> Nodes;
  Node *Head = nullptr;
  Node *Tail = nullptr;
  size_t Count = 0;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_LINKEDLIST_H

//===- AVLTree.h - Self-balancing search tree (internal) --------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch AVL tree backing the sorted collection variants
/// (TreeSet / TreeMap — the paper's future-work item "a wider set of
/// candidate collections, including ... sorted collections", §7, realized
/// here as the analogue of JDK TreeSet/TreeMap). Internal to the
/// collections library.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_AVLTREE_H
#define CSWITCH_COLLECTIONS_DETAIL_AVLTREE_H

#include "collections/detail/NodeCache.h"
#include "support/FunctionRef.h"
#include "support/MemoryTracker.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace cswitch {
namespace detail {

/// An AVL-balanced binary search tree mapping K to V.
///
/// Keys require a strict weak ordering via operator<. All allocation is
/// counted. Heights are maintained eagerly; the AVL invariant (balance
/// factor in {-1, 0, 1}) holds after every mutation.
template <typename K, typename V> class AVLTree {
  struct Node {
    K Key;
    V Value;
    Node *Left;
    Node *Right;
    int32_t Height;
  };

public:
  AVLTree() = default;

  AVLTree(const AVLTree &) = delete;
  AVLTree &operator=(const AVLTree &) = delete;

  ~AVLTree() { clear(); }

  /// Inserts or overwrites; returns true if the key was new.
  bool insertOrAssign(const K &Key, const V &Value) {
    bool Inserted = false;
    Root = insertImpl(Root, Key, Value, Inserted);
    if (Inserted)
      ++Count;
    return Inserted;
  }

  /// Returns the value of \p Key, or nullptr.
  const V *find(const K &Key) const {
    const Node *N = Root;
    while (N) {
      if (Key < N->Key)
        N = N->Left;
      else if (N->Key < Key)
        N = N->Right;
      else
        return &N->Value;
    }
    return nullptr;
  }

  V *findMutable(const K &Key) {
    return const_cast<V *>(static_cast<const AVLTree *>(this)->find(Key));
  }

  /// Removes the mapping of \p Key; returns false if absent.
  bool erase(const K &Key) {
    bool Erased = false;
    Root = eraseImpl(Root, Key, Erased);
    if (Erased)
      --Count;
    return Erased;
  }

  size_t size() const { return Count; }

  void clear() {
    destroy(Root);
    Nodes.release();
    Root = nullptr;
    Count = 0;
  }

  /// Removes every mapping and parks the nodes for later inserts.
  void clearForReuse() {
    park(Root);
    Root = nullptr;
    Count = 0;
  }

  /// In-order (ascending key) traversal.
  void inorder(FunctionRef<void(const K &, const V &)> Fn) const {
    inorderImpl(Root, Fn);
  }

  /// Bytes owned by the tree, excluding sizeof(*this).
  size_t memoryFootprint() const {
    return Nodes.bytesFor(Count) + Nodes.bytes();
  }

  /// Bytes of the nodes that hold \p N mappings.
  static constexpr size_t nodeBytes(size_t N) {
    return NodeCache<Node>::bytesFor(N);
  }

  /// Verifies the AVL and BST invariants (test support; O(n)).
  bool verifyInvariants() const {
    const K *Prev = nullptr;
    return verifyImpl(Root, Prev) >= 0;
  }

private:
  static int32_t heightOf(const Node *N) { return N ? N->Height : 0; }

  static void updateHeight(Node *N) {
    N->Height = 1 + std::max(heightOf(N->Left), heightOf(N->Right));
  }

  static int32_t balanceOf(const Node *N) {
    return heightOf(N->Left) - heightOf(N->Right);
  }

  static Node *rotateRight(Node *Y) {
    Node *X = Y->Left;
    Y->Left = X->Right;
    X->Right = Y;
    updateHeight(Y);
    updateHeight(X);
    return X;
  }

  static Node *rotateLeft(Node *X) {
    Node *Y = X->Right;
    X->Right = Y->Left;
    Y->Left = X;
    updateHeight(X);
    updateHeight(Y);
    return Y;
  }

  static Node *rebalance(Node *N) {
    updateHeight(N);
    int32_t Balance = balanceOf(N);
    if (Balance > 1) {
      if (balanceOf(N->Left) < 0)
        N->Left = rotateLeft(N->Left);
      return rotateRight(N);
    }
    if (Balance < -1) {
      if (balanceOf(N->Right) > 0)
        N->Right = rotateRight(N->Right);
      return rotateLeft(N);
    }
    return N;
  }

  Node *insertImpl(Node *N, const K &Key, const V &Value, bool &Inserted) {
    if (!N) {
      Inserted = true;
      return Nodes.make(Node{Key, Value, nullptr, nullptr, 1});
    }
    if (Key < N->Key)
      N->Left = insertImpl(N->Left, Key, Value, Inserted);
    else if (N->Key < Key)
      N->Right = insertImpl(N->Right, Key, Value, Inserted);
    else {
      N->Value = Value;
      return N;
    }
    return rebalance(N);
  }

  Node *eraseImpl(Node *N, const K &Key, bool &Erased) {
    if (!N)
      return nullptr;
    if (Key < N->Key) {
      N->Left = eraseImpl(N->Left, Key, Erased);
    } else if (N->Key < Key) {
      N->Right = eraseImpl(N->Right, Key, Erased);
    } else {
      Erased = true;
      if (!N->Left || !N->Right) {
        Node *Child = N->Left ? N->Left : N->Right;
        deleteCounted(N);
        return Child;
      }
      // Two children: replace with the in-order successor.
      Node *Successor = N->Right;
      while (Successor->Left)
        Successor = Successor->Left;
      N->Key = Successor->Key;
      N->Value = Successor->Value;
      bool Dummy = false;
      N->Right = eraseImpl(N->Right, Successor->Key, Dummy);
    }
    return rebalance(N);
  }

  void destroy(Node *N) {
    if (!N)
      return;
    destroy(N->Left);
    destroy(N->Right);
    deleteCounted(N);
  }

  void park(Node *N) {
    if (!N)
      return;
    park(N->Left);
    park(N->Right);
    Nodes.park(N);
  }

  void inorderImpl(const Node *N,
                   FunctionRef<void(const K &, const V &)> Fn) const {
    if (!N)
      return;
    inorderImpl(N->Left, Fn);
    Fn(N->Key, N->Value);
    inorderImpl(N->Right, Fn);
  }

  /// Returns the height, or -1 on any invariant violation. \p Prev
  /// threads the previously visited key for the BST ordering check.
  int32_t verifyImpl(const Node *N, const K *&Prev) const {
    if (!N)
      return 0;
    int32_t LeftHeight = verifyImpl(N->Left, Prev);
    if (LeftHeight < 0)
      return -1;
    if (Prev && !(*Prev < N->Key))
      return -1;
    Prev = &N->Key;
    int32_t RightHeight = verifyImpl(N->Right, Prev);
    if (RightHeight < 0)
      return -1;
    if (std::abs(LeftHeight - RightHeight) > 1)
      return -1;
    int32_t Height = 1 + std::max(LeftHeight, RightHeight);
    if (Height != N->Height)
      return -1;
    return Height;
  }

  NodeCache<Node> Nodes;
  Node *Root = nullptr;
  size_t Count = 0;
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_AVLTREE_H

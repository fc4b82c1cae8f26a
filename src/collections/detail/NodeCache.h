//===- NodeCache.h - Parked nodes of a node-based variant -------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The node storage a node-based variant keeps across reuse (DESIGN.md
/// §4.4). clearForReuse() destroys each element and parks its node here;
/// inserts take a parked node before they go to the heap. clear(),
/// removals and the destructor never park, so an instance that is not
/// reused allocates exactly as without the cache. Internal to the
/// collections library.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_NODECACHE_H
#define CSWITCH_COLLECTIONS_DETAIL_NODECACHE_H

#include "support/MemoryTracker.h"

#include <cstddef>
#include <new>
#include <utility>

namespace cswitch {
namespace detail {

/// Intrusive counted free list of \p NodeT storage. A parked node holds
/// no live element: its storage holds only the link to the next one.
template <typename NodeT> class NodeCache {
  struct Parked {
    Parked *Next;
  };
  static_assert(sizeof(NodeT) >= sizeof(Parked) &&
                    alignof(NodeT) >= alignof(Parked),
                "a node must be able to hold the free-list link");

public:
  NodeCache() = default;
  NodeCache(const NodeCache &) = delete;
  NodeCache &operator=(const NodeCache &) = delete;
  ~NodeCache() { release(); }

  /// A node constructed from \p As, in parked storage if there is any,
  /// else in a new counted allocation.
  template <typename... Args> NodeT *make(Args &&...As) {
    if (!Head)
      return newCounted<NodeT>(std::forward<Args>(As)...);
    void *Storage = Head;
    Head = Head->Next;
    --Count;
    return new (Storage) NodeT(std::forward<Args>(As)...);
  }

  /// Destroys \p N's element and parks its storage.
  void park(NodeT *N) {
    N->~NodeT();
    Head = new (static_cast<void *>(N)) Parked{Head};
    ++Count;
  }

  /// Parks every node of the chain that starts at \p First and follows
  /// \p Link.
  void parkChain(NodeT *First, NodeT *NodeT::*Link) {
    while (First) {
      NodeT *Next = First->*Link;
      park(First);
      First = Next;
    }
  }

  /// Frees every parked node.
  void release() {
    while (Head) {
      Parked *Next = Head->Next;
      CountingAllocator<NodeT>().deallocate(reinterpret_cast<NodeT *>(Head),
                                            1);
      Head = Next;
    }
    Count = 0;
  }

  /// Bytes the parked nodes own.
  size_t bytes() const { return bytesFor(Count); }

  /// Bytes of \p N nodes.
  static constexpr size_t bytesFor(size_t N) { return N * sizeof(NodeT); }

private:
  Parked *Head = nullptr;
  size_t Count = 0;
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_NODECACHE_H

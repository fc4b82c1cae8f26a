//===- Sharding.h - Shard sizing/selection of the concurrent tier -*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared shard arithmetic of the lock-striped collection variants
/// (DESIGN.md §11): resolving the shard count from the process-wide
/// ContentionPolicy and mapping a key hash to a shard.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_SHARDING_H
#define CSWITCH_COLLECTIONS_CONCURRENT_SHARDING_H

#include "collections/AdaptiveConfig.h"

#include <bit>
#include <cstddef>
#include <cstdint>

namespace cswitch {
namespace concurrent {

/// Maximum shards of any striped variant; bounds the per-instance
/// footprint (64 shards x a cache-line-aligned mutex + table header).
inline constexpr size_t MaxShards = 64;

/// Rounds \p Requested to the shard count actually used: the next power
/// of two, clamped to [1, MaxShards]. 0 = auto, which is MaxShards:
/// Zipf-skewed keys from even a few threads collide on a lock with
/// probability ~1/shards, so the stripe count follows contention rather
/// than the cpu count, and empty shards allocate no table.
inline size_t resolveShardCount(size_t Requested) {
  if (Requested == 0 || Requested > MaxShards)
    return MaxShards;
  return std::bit_ceil(Requested);
}

/// Shard count configured for new striped instances (the
/// ContentionPolicy knob resolved; see AdaptiveConfig).
inline size_t configuredShardCount() {
  return resolveShardCount(AdaptiveConfig::global().contention().Shards);
}

/// Shard of a key with hash \p Hash among \p Shards (a power of two).
///
/// Uses the *top* hash bits: the in-shard open-addressing tables index
/// with the low bits of the same hash, and reusing them here would make
/// every key of a shard collide into the same probe chain.
inline size_t shardOfHash(uint64_t Hash, size_t Shards) {
  return (Hash >> 32) & (Shards - 1);
}

} // namespace concurrent
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_SHARDING_H

//===- Hashing.h - Hash functions for the collection library ---*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash functions shared by every hash-backed collection variant. The
/// variants deliberately share one hash so that performance differences
/// between them reflect their table organisation (chained vs open vs
/// compact), not hash quality — mirroring the paper's setup where all Java
/// libraries hash through Object.hashCode spreading.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_HASHING_H
#define CSWITCH_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

namespace cswitch {

/// Finalizer from MurmurHash3: spreads entropy of an integer into all bits.
///
/// Integral keys in the benchmarks are sequential or uniform; without
/// spreading, open-addressing tables would exhibit artificial clustering
/// that chained tables hide, skewing the cost model.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// FNV-1a over a byte range; used for string keys.
inline uint64_t fnv1a(const void *Data, size_t Len) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I != Len; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// Default hasher used by all hash-backed collection variants.
///
/// Dispatches on the key type: integral and pointer keys are mixed,
/// strings are FNV-hashed, everything else defers to std::hash and then
/// mixes the result (std::hash for integers is commonly the identity,
/// which is fatal for open addressing).
template <typename T> struct DefaultHash {
  uint64_t operator()(const T &Value) const {
    if constexpr (std::is_integral_v<T> || std::is_enum_v<T>)
      return mix64(static_cast<uint64_t>(Value));
    else if constexpr (std::is_pointer_v<T>)
      return mix64(reinterpret_cast<uint64_t>(Value));
    else
      return mix64(std::hash<T>{}(Value));
  }
};

template <> struct DefaultHash<std::string> {
  uint64_t operator()(const std::string &Value) const {
    return fnv1a(Value.data(), Value.size());
  }
};

/// Combines two hash values (boost::hash_combine-style, 64-bit).
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4));
}

/// Rounds \p X up to the next power of two (minimum 1).
inline size_t nextPowerOfTwo(size_t X) {
  if (X <= 1)
    return 1;
  --X;
  X |= X >> 1;
  X |= X >> 2;
  X |= X >> 4;
  X |= X >> 8;
  X |= X >> 16;
  if constexpr (sizeof(size_t) == 8)
    X |= X >> 32;
  return X + 1;
}

/// Bucket count a chained table (load factor at most 3/4, power-of-two
/// buckets) needs to hold \p Elements without growing, never below its
/// own first allocation of \p InitialBuckets.
inline size_t chainedBucketCount(size_t Elements, size_t InitialBuckets) {
  size_t Needed = nextPowerOfTwo((Elements * 4 + 2) / 3);
  return Needed < InitialBuckets ? InitialBuckets : Needed;
}

} // namespace cswitch

#endif // CSWITCH_SUPPORT_HASHING_H

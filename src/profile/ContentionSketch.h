//===- ContentionSketch.h - Observed-thread-count estimation ----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contention signal of the concurrent collection tier (DESIGN.md
/// §11): a per-context cardinality sketch of the threads that touched
/// the context's collections, plus the operation volume they produced.
/// The estimated thread count is the size argument of the contention
/// cost polynomials — AdaptiveConfig's rules use it to pick mutex vs.
/// sharded vs. copy-on-write strategies as contention changes.
///
/// The sketch is a 64-bucket linear-counting bitmap: each thread sets
/// the bit of its id hash (computed once per thread, cached in a
/// thread-local), striped per cpu like SharedProfile so the hot path is
/// one relaxed check-then-fetch_or on a line only that cpu writes. The
/// estimate n = 64 * ln(64 / zero-bits) is exact to within a few
/// percent for the 1..16 threads the selection actually discriminates.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_PROFILE_CONTENTIONSKETCH_H
#define CSWITCH_PROFILE_CONTENTIONSKETCH_H

#include "support/Hashing.h"
#include "support/Topology.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>

namespace cswitch {

namespace detail {

/// The calling thread's sketch bit, hashed and cached on first use.
inline uint64_t threadSketchBit() {
  thread_local const uint64_t Bit =
      uint64_t(1) << (mix64(std::hash<std::thread::id>{}(
                          std::this_thread::get_id())) &
                      63);
  return Bit;
}

} // namespace detail

/// Striped thread-cardinality sketch with an operation counter.
class ContentionSketch {
public:
  /// \p Stripes = 0 means one stripe per cpu; every count is rounded
  /// up to a power of two and capped at 64 (resolveCpuStripes).
  explicit ContentionSketch(unsigned Stripes = 0)
      : NumStripes(resolveCpuStripes(Stripes)),
        Lanes(std::make_unique<Stripe[]>(NumStripes)) {}

  /// Records \p N operations by the calling thread.
  void observe(uint64_t N = 1) {
    Stripe &S = Lanes[currentCpuStripe(NumStripes)];
    S.Ops.fetch_add(N, std::memory_order_relaxed);
    uint64_t Bit = detail::threadSketchBit();
    // Check-before-or: after a thread's first op on a cpu the bit is
    // already set and the hot path is a read of that cpu's line.
    if (!(S.Bits.load(std::memory_order_relaxed) & Bit))
      S.Bits.fetch_or(Bit, std::memory_order_relaxed);
  }

  /// Operations observed since the last reset().
  uint64_t operations() const {
    uint64_t Total = 0;
    for (unsigned S = 0; S != NumStripes; ++S)
      Total += Lanes[S].Ops.load(std::memory_order_relaxed);
    return Total;
  }

  /// Linear-counting estimate of the distinct threads observed since
  /// the last reset(). 0 when nothing was observed; saturates at 64.
  double estimateThreads() const {
    uint64_t Union = 0;
    for (unsigned S = 0; S != NumStripes; ++S)
      Union |= Lanes[S].Bits.load(std::memory_order_relaxed);
    if (Union == 0)
      return 0.0;
    int Zero = 64 - std::popcount(Union);
    if (Zero == 0)
      return 64.0;
    return 64.0 * std::log(64.0 / static_cast<double>(Zero));
  }

  /// Clears bits and operation counters (start of an analysis round).
  void reset() {
    for (unsigned S = 0; S != NumStripes; ++S) {
      Lanes[S].Bits.store(0, std::memory_order_relaxed);
      Lanes[S].Ops.store(0, std::memory_order_relaxed);
    }
  }

  unsigned stripes() const { return NumStripes; }

private:
  struct alignas(CacheLineBytes) Stripe {
    std::atomic<uint64_t> Bits{0};
    std::atomic<uint64_t> Ops{0};
  };

  unsigned NumStripes;
  std::unique_ptr<Stripe[]> Lanes;
};

} // namespace cswitch

#endif // CSWITCH_PROFILE_CONTENTIONSKETCH_H

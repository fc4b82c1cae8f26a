//===- SharedProfile.h - Multi-owner workload profile -----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-owner replacement for the facade's plain WorkloadProfile.
/// A sequential facade is owned by one thread, so its profile is plain
/// data; a concurrent-tier facade is hammered from many threads, and a
/// plain profile would be both racy and a cache-line hot spot. The
/// SharedProfile stripes the per-operation counters per cpu (the
/// writers of one instance are its contenders, so the stripes follow
/// them rather than the NUMA layout), maintains the maximum size as a
/// CAS-max, and forwards every operation to the owning context's
/// ContentionSketch so the contention signal sees the instance's
/// threads. The facade destructor collapses it into an ordinary
/// WorkloadProfile before reporting (DESIGN.md §11).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_PROFILE_SHAREDPROFILE_H
#define CSWITCH_PROFILE_SHAREDPROFILE_H

#include "profile/ContentionSketch.h"
#include "profile/WorkloadProfile.h"
#include "support/Topology.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace cswitch {

/// Thread-safe, per-cpu-striped workload profile for concurrent facades.
class SharedProfile {
public:
  /// \p Sketch, when non-null, additionally observes every recorded
  /// operation (it outlives the profile: the owning context holds it).
  /// \p Stripes = 0 means one stripe per cpu; every count is rounded
  /// up to a power of two and capped at 64 (resolveCpuStripes).
  explicit SharedProfile(ContentionSketch *Sketch = nullptr,
                         unsigned Stripes = 0)
      : NumStripes(resolveCpuStripes(Stripes)),
        Lanes(std::make_unique<Stripe[]>(NumStripes)), Sketch(Sketch) {}

  /// Increments the counter of \p Kind on the calling cpu's stripe.
  void record(OperationKind Kind, uint64_t N = 1) {
    Lanes[currentCpuStripe(NumStripes)]
        .Counts[static_cast<size_t>(Kind)]
        .fetch_add(N, std::memory_order_relaxed);
    if (Sketch)
      Sketch->observe(N);
  }

  /// Raises the maximum observed size (relaxed CAS-max).
  void recordSize(uint64_t Size) {
    uint64_t Seen = Max.load(std::memory_order_relaxed);
    while (Size > Seen &&
           !Max.compare_exchange_weak(Seen, Size,
                                      std::memory_order_relaxed))
      ;
  }

  /// Collapses the stripes into a plain profile (a valid snapshot of
  /// some interleaving while writers race, exact once they stopped).
  WorkloadProfile snapshot() const {
    WorkloadProfile P;
    for (unsigned S = 0; S != NumStripes; ++S)
      for (size_t I = 0; I != NumOperationKinds; ++I)
        P.Counts[I] +=
            Lanes[S].Counts[I].load(std::memory_order_relaxed);
    P.MaxSize = Max.load(std::memory_order_relaxed);
    return P;
  }

  unsigned stripes() const { return NumStripes; }

private:
  struct alignas(CacheLineBytes) Stripe {
    std::atomic<uint64_t> Counts[NumOperationKinds] = {};
  };
  static_assert(NumOperationKinds * sizeof(uint64_t) <= CacheLineBytes,
                "one stripe must fit a cache line");

  unsigned NumStripes;
  std::unique_ptr<Stripe[]> Lanes;
  std::atomic<uint64_t> Max{0};
  ContentionSketch *Sketch;
};

} // namespace cswitch

#endif // CSWITCH_PROFILE_SHAREDPROFILE_H

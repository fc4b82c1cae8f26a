//===- LatencyHistogram.cpp - Log-bucketed latency histograms ------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "obs/LatencyHistogram.h"


#include <algorithm>
#include <bit>
#include <cmath>

using namespace cswitch;
using namespace cswitch::obs;

size_t HistogramLayout::bucketIndex(uint64_t Nanos) {
  if (Nanos < SubBuckets)
    return static_cast<size_t>(Nanos);
  if (Nanos > MaxTrackableNanos)
    return NumBuckets - 1;
  // Exponent of the leading bit; in [SubBucketBits, MaxExponent).
  unsigned Exp = 63u - static_cast<unsigned>(std::countl_zero(Nanos));
  // The SubBucketBits bits right below the leading bit pick the
  // sub-bucket within the octave.
  auto Sub = static_cast<size_t>((Nanos >> (Exp - SubBucketBits)) &
                                 (SubBuckets - 1));
  size_t Octave = Exp - SubBucketBits + 1; // octave 0 = linear region
  return Octave * SubBuckets + Sub;
}

uint64_t HistogramLayout::bucketLowerBound(size_t Index) {
  if (Index < SubBuckets)
    return Index;
  size_t Octave = Index / SubBuckets; // >= 1
  size_t Sub = Index % SubBuckets;
  unsigned Exp = static_cast<unsigned>(Octave) + SubBucketBits - 1;
  return (uint64_t(SubBuckets) + Sub) << (Exp - SubBucketBits);
}

uint64_t HistogramLayout::bucketWidth(size_t Index) {
  if (Index < SubBuckets)
    return 1;
  size_t Octave = Index / SubBuckets;
  unsigned Exp = static_cast<unsigned>(Octave) + SubBucketBits - 1;
  return uint64_t(1) << (Exp - SubBucketBits);
}

uint64_t HistogramLayout::bucketUpperBound(size_t Index) {
  return bucketLowerBound(Index) + bucketWidth(Index) - 1;
}

void LatencyHistogram::record(uint64_t Nanos, uint64_t N) {
  if (N == 0)
    return;
  Buckets[HistogramLayout::bucketIndex(Nanos)].fetch_add(
      N, std::memory_order_relaxed);
  Count.fetch_add(N, std::memory_order_relaxed);
  SumNanos.fetch_add(Nanos * N, std::memory_order_relaxed);
  if (Nanos > HistogramLayout::MaxTrackableNanos)
    Saturated.fetch_add(N, std::memory_order_relaxed);
  // Monotone extrema via CAS; losers re-check, so both converge to the
  // true bound without locks.
  uint64_t Seen = MinNanos.load(std::memory_order_relaxed);
  while (Nanos < Seen &&
         !MinNanos.compare_exchange_weak(Seen, Nanos,
                                         std::memory_order_relaxed)) {
  }
  Seen = MaxNanos.load(std::memory_order_relaxed);
  while (Nanos > Seen &&
         !MaxNanos.compare_exchange_weak(Seen, Nanos,
                                         std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot S;
  S.Count = Count.load(std::memory_order_relaxed);
  S.Saturated = Saturated.load(std::memory_order_relaxed);
  S.SumNanos = SumNanos.load(std::memory_order_relaxed);
  uint64_t Min = MinNanos.load(std::memory_order_relaxed);
  S.MinNanos = Min == UINT64_MAX ? 0 : Min;
  S.MaxNanos = MaxNanos.load(std::memory_order_relaxed);
  for (size_t I = 0; I != HistogramLayout::NumBuckets; ++I)
    S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
  return S;
}

HistogramSnapshot &
HistogramSnapshot::operator+=(const HistogramSnapshot &Other) {
  Count += Other.Count;
  Saturated += Other.Saturated;
  SumNanos += Other.SumNanos;
  if (Other.Count != 0)
    MinNanos = Count == Other.Count ? Other.MinNanos
                                    : std::min(MinNanos, Other.MinNanos);
  MaxNanos = std::max(MaxNanos, Other.MaxNanos);
  for (size_t I = 0; I != HistogramLayout::NumBuckets; ++I)
    Buckets[I] += Other.Buckets[I];
  return *this;
}

double HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  auto Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  Rank = std::max<uint64_t>(Rank, 1);
  uint64_t Cumulative = 0;
  for (size_t I = 0; I != HistogramLayout::NumBuckets; ++I) {
    Cumulative += Buckets[I];
    if (Cumulative >= Rank) {
      double Upper =
          static_cast<double>(HistogramLayout::bucketUpperBound(I));
      // Never report beyond the observed maximum (the top occupied
      // bucket usually extends past it).
      return std::min(Upper, static_cast<double>(MaxNanos));
    }
  }
  return static_cast<double>(MaxNanos);
}

LatencyStats HistogramSnapshot::stats() const {
  LatencyStats S;
  S.Count = Count;
  S.Saturated = Saturated;
  S.SumNanos = SumNanos;
  S.MinNanos = MinNanos;
  S.MaxNanos = MaxNanos;
  S.P50 = quantile(0.50);
  S.P90 = quantile(0.90);
  S.P99 = quantile(0.99);
  S.P999 = quantile(0.999);
  return S;
}

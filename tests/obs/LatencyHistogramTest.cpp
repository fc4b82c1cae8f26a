//===- LatencyHistogramTest.cpp - Log-bucketed histogram unit tests -------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Correctness of the continuous-profiling histograms (DESIGN.md §9):
// bucket geometry at the octave boundaries, saturation above the max
// trackable value, weighted records, the one-bucket-width quantile
// error bound against a sorted reference, snapshot merging, and
// concurrent record-vs-snapshot (the case TSan watches).
//
//===----------------------------------------------------------------------===//

#include "obs/LatencyHistogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::obs;

namespace {

TEST(LatencyHistogram, LayoutGeometryIsConsistent) {
  // Every bucket tiles the value line: lower bounds are strictly
  // increasing and each bucket starts right after its predecessor ends.
  for (size_t I = 1; I != HistogramLayout::NumBuckets; ++I)
    EXPECT_EQ(HistogramLayout::bucketLowerBound(I),
              HistogramLayout::bucketUpperBound(I - 1) + 1)
        << "gap/overlap at bucket " << I;
  // Both edges of every bucket map back to that bucket.
  for (size_t I = 0; I != HistogramLayout::NumBuckets - 1; ++I) {
    EXPECT_EQ(HistogramLayout::bucketIndex(
                  HistogramLayout::bucketLowerBound(I)),
              I);
    EXPECT_EQ(HistogramLayout::bucketIndex(
                  HistogramLayout::bucketUpperBound(I)),
              I);
  }
}

TEST(LatencyHistogram, BoundaryValuesLandInExpectedBuckets) {
  // The linear region gives exact one-nanosecond buckets for 0..15.
  for (uint64_t V = 0; V != 16; ++V) {
    EXPECT_EQ(HistogramLayout::bucketIndex(V), V);
    EXPECT_EQ(HistogramLayout::bucketWidth(V), 1u);
  }
  // 16 opens the first split octave; 31 closes its first half-step of
  // sub-buckets; 32 opens the next octave.
  EXPECT_EQ(HistogramLayout::bucketIndex(15), 15u);
  EXPECT_EQ(HistogramLayout::bucketIndex(16), 16u);
  EXPECT_EQ(HistogramLayout::bucketIndex(31), 31u);
  EXPECT_EQ(HistogramLayout::bucketIndex(32), 32u);
  // Octave [16, 32) still has width-1 buckets; [32, 64) width 2.
  EXPECT_EQ(HistogramLayout::bucketWidth(16), 1u);
  EXPECT_EQ(HistogramLayout::bucketWidth(32), 2u);
  // The largest trackable value occupies the final bucket.
  EXPECT_EQ(HistogramLayout::bucketIndex(HistogramLayout::MaxTrackableNanos),
            HistogramLayout::NumBuckets - 1);
  // Relative bucket width is bounded by 1/SubBuckets everywhere.
  for (size_t I = 0; I != HistogramLayout::NumBuckets; ++I) {
    uint64_t Lower = HistogramLayout::bucketLowerBound(I);
    uint64_t Width = HistogramLayout::bucketWidth(I);
    if (Lower >= HistogramLayout::SubBuckets) {
      EXPECT_LE(static_cast<double>(Width) / static_cast<double>(Lower),
                1.0 / HistogramLayout::SubBuckets + 1e-12)
          << "bucket " << I;
    }
  }
}

TEST(LatencyHistogram, SaturatesAboveMaxTrackable) {
  LatencyHistogram H;
  H.record(HistogramLayout::MaxTrackableNanos);
  H.record(HistogramLayout::MaxTrackableNanos + 1);
  H.record(UINT64_MAX);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.Saturated, 2u);
  // All three land in the final bucket; the max remembers the real value.
  EXPECT_EQ(S.Buckets[HistogramLayout::NumBuckets - 1], 3u);
  EXPECT_EQ(S.MaxNanos, UINT64_MAX);
  EXPECT_EQ(S.MinNanos, HistogramLayout::MaxTrackableNanos);
}

TEST(LatencyHistogram, WeightedRecordCountsAsManySamples) {
  LatencyHistogram H;
  H.record(100, 64);
  H.record(200);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 65u);
  EXPECT_EQ(S.SumNanos, 64u * 100 + 200);
  EXPECT_EQ(S.MinNanos, 100u);
  EXPECT_EQ(S.MaxNanos, 200u);
  EXPECT_EQ(S.Buckets[HistogramLayout::bucketIndex(100)], 64u);
  // The weighted value dominates every quantile up to 64/65.
  EXPECT_LE(S.quantile(0.5), HistogramLayout::bucketUpperBound(
                                 HistogramLayout::bucketIndex(100)));
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  LatencyHistogram H;
  EXPECT_TRUE(H.empty());
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.MinNanos, 0u);
  EXPECT_EQ(S.quantile(0.99), 0.0);
  LatencyStats Stats = S.stats();
  EXPECT_EQ(Stats.Count, 0u);
  EXPECT_EQ(Stats.P99, 0.0);
}

TEST(LatencyHistogram, QuantileErrorIsBoundedByOneBucketWidth) {
  // Log-normal-ish latencies spanning several octaves, quantiles
  // checked against the exact sorted reference.
  std::mt19937_64 Rng(42);
  std::lognormal_distribution<double> Dist(6.0, 1.5);
  LatencyHistogram H;
  std::vector<uint64_t> Reference;
  for (int I = 0; I != 20000; ++I) {
    uint64_t V = static_cast<uint64_t>(Dist(Rng));
    Reference.push_back(V);
    H.record(V);
  }
  std::sort(Reference.begin(), Reference.end());
  HistogramSnapshot S = H.snapshot();
  for (double Q : {0.5, 0.9, 0.99, 0.999}) {
    size_t Rank = static_cast<size_t>(
        std::ceil(Q * static_cast<double>(Reference.size())));
    Rank = std::min(std::max<size_t>(Rank, 1), Reference.size());
    uint64_t Exact = Reference[Rank - 1];
    double Estimate = S.quantile(Q);
    size_t Bucket = HistogramLayout::bucketIndex(Exact);
    double Width = static_cast<double>(HistogramLayout::bucketWidth(Bucket));
    EXPECT_GE(Estimate, static_cast<double>(Exact) - Width)
        << "q" << Q << " exact " << Exact;
    EXPECT_LE(Estimate, static_cast<double>(Exact) + Width)
        << "q" << Q << " exact " << Exact;
  }
}

TEST(LatencyHistogram, SnapshotsMergeBucketwise) {
  LatencyHistogram A, B;
  A.record(10);
  A.record(1000);
  B.record(5);
  B.record(100000);
  HistogramSnapshot SA = A.snapshot();
  SA += B.snapshot();
  EXPECT_EQ(SA.Count, 4u);
  EXPECT_EQ(SA.MinNanos, 5u);
  EXPECT_EQ(SA.MaxNanos, 100000u);
  EXPECT_EQ(SA.SumNanos, 10u + 1000 + 5 + 100000);
  EXPECT_EQ(SA.Buckets[HistogramLayout::bucketIndex(5)], 1u);
  EXPECT_EQ(SA.Buckets[HistogramLayout::bucketIndex(100000)], 1u);
  // Merging an empty snapshot changes nothing (the empty side's
  // zero-Min must not clobber the real minimum).
  HistogramSnapshot Before = SA;
  SA += HistogramSnapshot{};
  EXPECT_EQ(SA.Count, Before.Count);
  EXPECT_EQ(SA.MinNanos, Before.MinNanos);
  // And merging into an empty snapshot adopts the other side.
  HistogramSnapshot Empty;
  Empty += Before;
  EXPECT_EQ(Empty.MinNanos, Before.MinNanos);
  EXPECT_EQ(Empty.Count, Before.Count);
}

TEST(LatencyHistogram, StatsDistillHeadlineQuantiles) {
  LatencyHistogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  LatencyStats S = H.snapshot().stats();
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_EQ(S.MinNanos, 1u);
  EXPECT_EQ(S.MaxNanos, 1000u);
  EXPECT_EQ(S.SumNanos, 500500u);
  // 6.25% relative bucket error bound on each headline quantile.
  EXPECT_NEAR(S.P50, 500.0, 500.0 / 16 + 1);
  EXPECT_NEAR(S.P90, 900.0, 900.0 / 16 + 1);
  EXPECT_NEAR(S.P99, 990.0, 990.0 / 16 + 1);
  EXPECT_NEAR(S.P999, 999.0, 999.0 / 16 + 1);
}

TEST(LatencyHistogram, ConcurrentRecordAndSnapshotIsRaceFree) {
  // Writers hammer the histogram while a reader keeps snapshotting;
  // TSan validates the atomics, the final snapshot validates totals.
  LatencyHistogram H;
  constexpr int Writers = 4;
  constexpr uint64_t PerWriter = 20000;
  std::atomic<bool> Stop{false};
  std::thread Reader([&H, &Stop] {
    while (!Stop.load(std::memory_order_relaxed)) {
      HistogramSnapshot S = H.snapshot();
      // Monotone sanity on a racing snapshot: never more saturation
      // than samples, and extrema bracket any non-empty view.
      EXPECT_LE(S.Saturated, S.Count);
      if (S.Count != 0) {
        EXPECT_LE(S.MinNanos, S.MaxNanos);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> Threads;
  for (int W = 0; W != Writers; ++W)
    Threads.emplace_back([&H, W] {
      for (uint64_t I = 0; I != PerWriter; ++I)
        H.record((I % 4096) + static_cast<uint64_t>(W));
    });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  Reader.join();
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, static_cast<uint64_t>(Writers) * PerWriter);
  uint64_t BucketSum = 0;
  for (uint64_t B : S.Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, S.Count);
}

} // namespace

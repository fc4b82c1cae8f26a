//===- LatencyHistogram.h - Log-bucketed latency histograms -----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-footprint, lock-free latency histograms for the continuous
/// profiling layer (DESIGN.md §9). HdrHistogram-style log-linear
/// bucketing: values 0..15 ns get exact one-nanosecond buckets; above
/// that every power-of-two octave is split into 16 sub-buckets, so the
/// relative bucket width — and therefore the worst-case quantile error —
/// is bounded by 1/16 (6.25%) everywhere. The whole histogram is 432
/// fixed buckets (~3.4 KB), independent of how many samples it absorbs.
///
/// Concurrency: record() is wait-free — a handful of relaxed atomic
/// RMWs on monotonically increasing counters, no locks, no allocation.
/// Multiple writers may record concurrently; snapshot() reads the same
/// atomics without stopping writers and yields a merge-consistent view
/// (counts observed are always counts that were recorded; a snapshot
/// racing a record may miss it, never corrupt it). Snapshots are plain
/// values that merge with operator+= and distill to the telemetry
/// schema's LatencyStats (p50/p90/p99/p999).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_OBS_LATENCYHISTOGRAM_H
#define CSWITCH_OBS_LATENCYHISTOGRAM_H

#include "support/Telemetry.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cswitch {
namespace obs {

/// Value-independent bucket geometry shared by the live histogram and
/// its snapshots.
struct HistogramLayout {
  /// Sub-buckets per power-of-two octave (the precision knob).
  static constexpr unsigned SubBuckets = 16;
  /// log2(SubBuckets).
  static constexpr unsigned SubBucketBits = 4;
  /// Largest exactly-representable exponent: values at or above
  /// 2^MaxExponent saturate into the top bucket.
  static constexpr unsigned MaxExponent = 30; // 2^30 ns ≈ 1.07 s
  /// Largest value that lands in a regular bucket; everything above is
  /// clamped into the final bucket and counted as saturated.
  static constexpr uint64_t MaxTrackableNanos = (uint64_t(1) << MaxExponent) - 1;
  /// Total bucket count: the exact linear region [0, SubBuckets) plus
  /// SubBuckets per octave from exponent SubBucketBits to MaxExponent-1.
  static constexpr size_t NumBuckets =
      SubBuckets + (MaxExponent - SubBucketBits) * SubBuckets;

  /// Bucket index of \p Nanos (values above MaxTrackableNanos clamp to
  /// the last bucket).
  static size_t bucketIndex(uint64_t Nanos);

  /// Smallest value mapping to bucket \p Index.
  static uint64_t bucketLowerBound(size_t Index);

  /// Width of bucket \p Index in nanoseconds (>= 1).
  static uint64_t bucketWidth(size_t Index);

  /// Largest value mapping to bucket \p Index
  /// (bucketLowerBound + bucketWidth - 1).
  static uint64_t bucketUpperBound(size_t Index);
};

/// Plain-value copy of a histogram's state at one point in time.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Saturated = 0;
  uint64_t SumNanos = 0;
  uint64_t MinNanos = 0; ///< 0 when empty.
  uint64_t MaxNanos = 0;
  std::array<uint64_t, HistogramLayout::NumBuckets> Buckets = {};

  /// Merges \p Other into this snapshot (bucket-wise; extrema widen).
  HistogramSnapshot &operator+=(const HistogramSnapshot &Other);

  /// Estimate of the \p Q quantile (Q in [0, 1]): the upper bound of
  /// the bucket containing the rank-ceil(Q*Count) sample, clamped to
  /// the observed maximum. Error is bounded by one bucket width. 0 when
  /// the histogram is empty.
  double quantile(double Q) const;

  /// Distills the snapshot into the telemetry schema's value type
  /// (count, extrema, p50/p90/p99/p999).
  LatencyStats stats() const;
};

/// The live, concurrently-writable histogram.
class LatencyHistogram {
public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram &) = delete;
  LatencyHistogram &operator=(const LatencyHistogram &) = delete;

  /// Records one latency sample. Wait-free; safe from any thread.
  void record(uint64_t Nanos) { record(Nanos, 1); }

  /// Records \p N samples of the same latency (sampled instrumentation
  /// points scale their observations back up with this).
  void record(uint64_t Nanos, uint64_t N);

  /// Copies the current state without stopping writers.
  HistogramSnapshot snapshot() const;

  /// True once at least one sample was recorded (single relaxed load —
  /// cheap enough for reporting paths to skip empty histograms).
  bool empty() const {
    return Count.load(std::memory_order_relaxed) == 0;
  }

private:
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Saturated{0};
  std::atomic<uint64_t> SumNanos{0};
  std::atomic<uint64_t> MinNanos{UINT64_MAX};
  std::atomic<uint64_t> MaxNanos{0};
  std::array<std::atomic<uint64_t>, HistogramLayout::NumBuckets> Buckets = {};
};

} // namespace obs
} // namespace cswitch

#endif // CSWITCH_OBS_LATENCYHISTOGRAM_H

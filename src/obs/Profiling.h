//===- Profiling.h - Continuous profiling registry --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The continuous profiling layer's site registry (DESIGN.md §9).
/// Every allocation context resolves a SiteProfile — three latency
/// histograms for its instrumented paths — keyed by site name, so
/// same-named contexts across harness runs accumulate into one
/// distribution and the data outlives any individual context (profiles
/// are interned, never freed; growth is bounded by the program's site
/// cardinality, exactly like the EventLog intern table).
///
/// Cost model of the instrumented paths:
///   * record() (the monitoring fast path) is sampled 1-in-64 per
///     thread: the common case adds one thread_local counter decrement;
///     only sampled instances pay the two steady-clock reads. Recorded
///     samples carry weight 64 so counts remain estimates of totals.
///   * evaluate(), switch execution and store persists are rare
///     (monitoring-rate paced), so every occurrence is timed.
///
/// setEnabled(false) turns the clock reads off globally (the
/// thread_local decrement remains — one register op).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_OBS_PROFILING_H
#define CSWITCH_OBS_PROFILING_H

#include "obs/LatencyHistogram.h"
#include "support/Timer.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cswitch {
namespace obs {

/// The three instrumented paths of one allocation site.
struct SiteProfile {
  std::string Name;
  LatencyHistogram Record;   ///< Slot claim + profile publication.
  LatencyHistogram Evaluate; ///< Window analysis rounds.
  LatencyHistogram Switch;   ///< Variant-transition execution.

  explicit SiteProfile(std::string SiteName) : Name(std::move(SiteName)) {}

  /// Distilled per-site view for the telemetry snapshot.
  SiteLatencies latencies() const {
    SiteLatencies L;
    L.Record = Record.snapshot().stats();
    L.Evaluate = Evaluate.snapshot().stats();
    L.Switch = Switch.snapshot().stats();
    return L;
  }
};

/// One merged (site name, histogram snapshots) row of an engine-wide
/// profiling sweep — what the OpenMetrics endpoint renders per site.
struct SiteHistogramSnapshot {
  std::string Name;
  HistogramSnapshot Record;
  HistogramSnapshot Evaluate;
  HistogramSnapshot Switch;
};

/// Process-wide registry of site profiles plus the engine-global
/// persistence histogram.
class ProfilingRegistry {
public:
  /// The process-wide registry instance.
  static ProfilingRegistry &global();

  /// Returns the profile of \p SiteName, creating it on first use. The
  /// pointer is stable for the process lifetime (profiles are interned).
  SiteProfile *profile(const std::string &SiteName);

  /// The store-persistence histogram (engine-wide; persists have no
  /// per-site identity).
  LatencyHistogram &persistHistogram() { return Persist; }

  /// Snapshot of every site's histograms, sorted by site name so
  /// exports are deterministic.
  std::vector<SiteHistogramSnapshot> snapshotSites() const;

  /// Engine-wide merge: all site histograms folded per path, persist
  /// alongside, distilled to the telemetry schema.
  EngineLatencies engineLatencies() const;

  /// Globally enables/disables latency recording (default: enabled).
  /// Disabling stops the clock reads; already-recorded data remains.
  static void setEnabled(bool Enabled) {
    EnabledFlag.store(Enabled, std::memory_order_relaxed);
  }

  static bool enabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

private:
  static std::atomic<bool> EnabledFlag;

  mutable std::mutex Mutex;
  /// Site name -> interned profile. unique_ptr gives pointer stability
  /// across rehashes.
  std::unordered_map<std::string, std::unique_ptr<SiteProfile>> Sites;
  LatencyHistogram Persist;
};

/// Sampling weight of the monitoring fast path (1-in-SampleEvery
/// instances pay the clock; each sample is recorded with this weight).
inline constexpr uint64_t RecordSampleEvery = 64;

/// Per-thread sampling gate for the record() path: true on every
/// SampleEvery-th call on this thread, and only when profiling is
/// globally enabled. The common case is one thread_local decrement.
inline bool shouldSampleRecord() {
  thread_local uint64_t Countdown = 1;
  if (--Countdown != 0)
    return false;
  Countdown = RecordSampleEvery;
  return ProfilingRegistry::enabled();
}

/// One steady-clock read in nanoseconds (shared epoch with the event
/// log, so histogram samples and decision events line up on export).
inline uint64_t nowNanos() { return monotonicNanos(); }

} // namespace obs
} // namespace cswitch

#endif // CSWITCH_OBS_PROFILING_H

//===- AdaptiveConfig.h - Adaptive-collection transition policy -*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transition thresholds of the adaptive collections (paper §3.2,
/// Table 1): the collection size at which AdaptiveList/Set/Map replace
/// their array representation with a hash-backed one. Defaults follow the
/// paper (80 / 40 / 50); the ThresholdAnalyzer can recompute them for the
/// target machine. Also tracks migration counts for the evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ADAPTIVECONFIG_H
#define CSWITCH_COLLECTIONS_ADAPTIVECONFIG_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cswitch {

/// Transition thresholds of the adaptive variants, in elements.
struct AdaptiveThresholds {
  size_t List = 80; ///< AdaptiveList: array -> hash-array (paper Table 1).
  size_t Set = 40;  ///< AdaptiveSet: array -> open hash.
  size_t Map = 50;  ///< AdaptiveMap: array -> open hash.
};

/// Largest transition threshold validateThresholds accepts. Above this
/// the array representation would scan megabytes per lookup — a value
/// this size in a tuning artifact is a bug, not a configuration.
inline constexpr size_t MaxAdaptiveThreshold = size_t(1) << 20;

/// Validates \p T for installation: every threshold must be in
/// [1, MaxAdaptiveThreshold]. A zero threshold would make the adaptive
/// variants migrate on construction and never use their array form —
/// rejecting it here keeps a corrupt or hand-edited tuning artifact
/// from wedging the adaptive tier. On failure returns false and, when
/// \p Error is non-null, appends a diagnostic naming the offending
/// field and value.
bool validateThresholds(const AdaptiveThresholds &T,
                        std::string *Error = nullptr);

/// Policy of the concurrent tier (DESIGN.md §11): how sharded variants
/// size their stripe arrays and how the contention signal feeds the
/// selection rules.
struct ContentionPolicy {
  /// Evaluate the contention cost dimension during analysis rounds of
  /// concurrent contexts. When false, concurrent variants compete on
  /// their single-threaded polynomials alone.
  bool Enabled = true;
  /// Shards of the lock-striped variants. 0 = auto: the maximum, 64.
  /// Explicit values are rounded up to a power of two and clamped to
  /// [1, 64].
  size_t Shards = 0;
  /// Minimum operations a context's contention sketch must have seen in
  /// a round before its thread estimate is trusted (below it the round
  /// keeps the previous smoothed estimate).
  uint64_t MinOps = 256;
  /// EWMA weight of the newest per-round thread estimate, in (0, 1];
  /// 1 = no smoothing.
  double Smoothing = 0.5;
};

/// Process-wide adaptive-collection policy and statistics.
class AdaptiveConfig {
public:
  /// Returns the process-wide configuration.
  static AdaptiveConfig &global();

  /// Current thresholds (plain loads; changing thresholds while adaptive
  /// collections are live only affects instances created afterwards).
  AdaptiveThresholds thresholds() const { return Current; }

  /// Installs new thresholds (e.g. computed by ThresholdAnalyzer).
  void setThresholds(const AdaptiveThresholds &T) { Current = T; }

  /// Validated installation (the path tuning artifacts go through):
  /// rejects out-of-range thresholds via validateThresholds, leaving
  /// the current configuration untouched. \returns true when installed.
  bool setThresholdsChecked(const AdaptiveThresholds &T,
                            std::string *Error = nullptr) {
    if (!validateThresholds(T, Error))
      return false;
    Current = T;
    return true;
  }

  /// Current concurrent-tier policy (same update semantics as
  /// thresholds(): changes affect instances and analysis rounds that
  /// start afterwards).
  ContentionPolicy contention() const { return Contention; }

  /// Installs a new concurrent-tier policy.
  void setContention(const ContentionPolicy &P) { Contention = P; }

  /// Records one representation migration (instance-level transition).
  void recordMigration() {
    Migrations.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total representation migrations since the last resetStats().
  uint64_t migrationCount() const {
    return Migrations.load(std::memory_order_relaxed);
  }

  /// Resets the migration counter.
  void resetStats() { Migrations.store(0, std::memory_order_relaxed); }

private:
  AdaptiveThresholds Current;
  ContentionPolicy Contention;
  std::atomic<uint64_t> Migrations{0};
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ADAPTIVECONFIG_H

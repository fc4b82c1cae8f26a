//===- Telemetry.h - Observability snapshot schema --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry schema of the framework's observability layer: typed,
/// string-keyed snapshots of the monitoring pipeline that the engine
/// fills, the periodic reporter emits, and MetricsExport serializes.
///
/// Layering: this header is pure data plus delta arithmetic — it knows
/// nothing about contexts, engines, or collections, so the support
/// library stays at the bottom of the dependency stack. The core layer
/// (SwitchEngine::telemetry()) produces snapshots; consumers diff,
/// export, or stream them.
///
/// All counters are cumulative ("since process start" for a live
/// snapshot). Interval behaviour is obtained by subtracting two
/// snapshots: `Now - Before` via the saturating operator-.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_TELEMETRY_H
#define CSWITCH_SUPPORT_TELEMETRY_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace cswitch {

/// How a described stats field aggregates and exports. Each scalar stats
/// struct below declares its fields once, in a static `fields(Row)`
/// visitor that calls `Row(Key, Kind, &Struct::Member, Help)` per field;
/// the arithmetic here and both exports (support/MetricsExport's JSON,
/// obs/OpenMetrics) iterate that table. DESIGN.md §6.2.
enum class MetricKind : uint8_t {
  Counter, ///< Summed, saturating delta; OpenMetrics `<family>_total`.
  Gauge,   ///< Summed, saturating delta; OpenMetrics gauge `<family>`.
  Info,    ///< Carried verbatim; a label of `cswitch_<section>_info`.
  State,   ///< Carried verbatim; JSON only.
};

namespace telemetry {

template <typename M> struct MemberOf;
template <typename C, typename T> struct MemberOf<T C::*> { using Type = T; };
/// The field type a row's member pointer designates.
template <typename M> using FieldType = typename MemberOf<M>::Type;

/// True when a row's member pointer type \p M designates an integer.
template <typename M>
inline constexpr bool IsIntegerField = std::is_integral_v<FieldType<M>>;

constexpr bool isAggregated(MetricKind K) {
  return K == MetricKind::Counter || K == MetricKind::Gauge;
}

/// True when the rows of \p S cover its whole layout (the row sizes sum
/// to sizeof(S)) and every aggregated row is an integer. Each described
/// struct static_asserts it, so a field added without a row does not
/// build.
template <typename S> constexpr bool describesLayout() {
  size_t Bytes = 0;
  bool Integral = true;
  S::fields([&](const char *, MetricKind K, auto Member, const char *) {
    Bytes += sizeof(FieldType<decltype(Member)>);
    Integral &= !isAggregated(K) || IsIntegerField<decltype(Member)>;
  });
  return Integral && Bytes == sizeof(S);
}

} // namespace telemetry

/// A stats struct with a field table.
template <typename S>
concept DescribedStats = requires {
  S::fields([](const char *, MetricKind, auto, const char *) {});
};

/// Adds \p B's aggregated fields into \p A; state stays \p A's.
template <DescribedStats S> S &operator+=(S &A, const S &B) {
  S::fields([&](const char *, MetricKind K, auto Member, const char *) {
    if constexpr (telemetry::IsIntegerField<decltype(Member)>)
      if (telemetry::isAggregated(K))
        A.*Member += B.*Member;
  });
  return A;
}

/// Interval difference: aggregated fields subtract saturating at zero (a
/// negative interval can only come from sources vanishing), state is
/// carried over from the newer snapshot \p A.
template <DescribedStats S> S operator-(const S &A, const S &B) {
  S Out = A;
  S::fields([&](const char *, MetricKind K, auto Member, const char *) {
    if constexpr (telemetry::IsIntegerField<decltype(Member)>)
      if (telemetry::isAggregated(K))
        Out.*Member = A.*Member > B.*Member ? A.*Member - B.*Member : 0;
  });
  return Out;
}

/// Monitoring counters of one allocation context (the "accessor pile"
/// of AllocationContextBase, batched into one value type). Exported per
/// site as `cswitch_<key>_total{site=...}`.
struct ContextStats {
  uint64_t InstancesCreated = 0;
  uint64_t InstancesMonitored = 0;
  uint64_t ProfilesPublished = 0;
  uint64_t ProfilesDiscarded = 0;
  uint64_t Evaluations = 0;
  uint64_t Switches = 0;
  uint64_t RoundsSkipped = 0;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = ContextStats;
    R("instances_created", Counter, &S::InstancesCreated,
      "Collections created through adaptive contexts.");
    R("instances_monitored", Counter, &S::InstancesMonitored,
      "Instances that claimed a monitoring slot.");
    R("profiles_published", Counter, &S::ProfilesPublished,
      "Usage profiles published into evaluation windows.");
    R("profiles_discarded", Counter, &S::ProfilesDiscarded,
      "Usage profiles discarded by closed windows.");
    R("evaluations", Counter, &S::Evaluations, "Window evaluation rounds run.");
    R("switches", Counter, &S::Switches, "Variant transitions executed.");
    R("rounds_skipped", Counter, &S::RoundsSkipped,
      "Monitoring rounds a converged context skipped (back-off).");
  }

  bool operator==(const ContextStats &) const = default;
};
static_assert(telemetry::describesLayout<ContextStats>());

/// Aggregate monitoring statistics over every registered context (the
/// facade-level report of the §5.3 overhead discussion): the contexts'
/// counters summed, plus how many contexts were summed.
struct EngineStats : ContextStats {
  size_t Contexts = 0;

  /// Adds one context's counters and counts it.
  EngineStats &operator+=(const ContextStats &Context) {
    ++Contexts;
    static_cast<ContextStats &>(*this) += Context;
    return *this;
  }
  EngineStats &operator+=(const EngineStats &Other) {
    return cswitch::operator+=(*this, Other);
  }

  template <typename Row> static constexpr void fields(Row &&R) {
    R("contexts", MetricKind::Gauge, &EngineStats::Contexts,
      "Allocation contexts currently registered with the engine.");
    ContextStats::fields(R);
  }

  bool operator==(const EngineStats &) const = default;
};
static_assert(telemetry::describesLayout<EngineStats>());

/// Distilled view of one latency histogram (src/obs/LatencyHistogram):
/// counts, extrema and the headline quantiles, all in nanoseconds.
/// Cumulative since process start, like every other telemetry counter;
/// quantiles describe the lifetime distribution, so interval snapshots
/// carry them verbatim from the newer snapshot rather than subtracting.
struct LatencyStats {
  uint64_t Count = 0;     ///< Samples recorded.
  uint64_t Saturated = 0; ///< Samples clamped at the max trackable value.
  uint64_t SumNanos = 0;  ///< Sum of recorded latencies.
  uint64_t MinNanos = 0;  ///< Smallest recorded latency (0 when empty).
  uint64_t MaxNanos = 0;  ///< Largest recorded latency.
  double P50 = 0.0;       ///< Median, in nanoseconds.
  double P90 = 0.0;
  double P99 = 0.0;
  double P999 = 0.0;

  bool operator==(const LatencyStats &) const = default;
};
// No operator+= on purpose: quantiles cannot be merged from two
// LatencyStats — aggregation happens on the histograms themselves
// (obs::HistogramSnapshot::operator+=) before distilling.

/// Latency distributions of one allocation site's instrumented paths
/// (the continuous-profiling layer's per-site view).
struct SiteLatencies {
  LatencyStats Record;   ///< Monitoring fast path (slot claim + publish).
  LatencyStats Evaluate; ///< Window evaluation (analysis rounds).
  LatencyStats Switch;   ///< Variant-transition execution.
};

/// Engine-wide latency distributions: the per-site histograms merged,
/// plus the store-persistence path (which has no per-site identity).
struct EngineLatencies {
  LatencyStats Record;
  LatencyStats Evaluate;
  LatencyStats Switch;
  LatencyStats Persist; ///< SelectionStore persist (merge + write).
};

/// Per-context slice of a telemetry snapshot. Strings, not enums, so
/// the schema (and its exports) need no knowledge of the collection
/// layer.
struct ContextSnapshot {
  std::string Name;        ///< Allocation-site name.
  std::string Abstraction; ///< "list", "set" or "map".
  std::string Variant;     ///< Current variant name.
  ContextStats Stats;
  size_t FootprintBytes = 0; ///< Approximate context memory footprint.
  SiteLatencies Latency;     ///< Per-site latency distributions.
  /// Smoothed estimate of distinct threads operating on this site's
  /// collections (0 for sequential contexts; DESIGN.md §11).
  double ContendedThreads = 0.0;
};

/// Counters of the event-log ring at snapshot time.
struct EventLogStats {
  uint64_t Recorded = 0;
  uint64_t Dropped = 0;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = EventLogStats;
    R("recorded", Counter, &S::Recorded,
      "Decision events recorded (incl. dropped).");
    R("dropped", Counter, &S::Dropped,
      "Decision events lost to ring wrap-around.");
  }

  bool operator==(const EventLogStats &) const = default;
};
static_assert(telemetry::describesLayout<EventLogStats>());

/// The host the process runs on (detected once at process start; see
/// support/Topology.h), recorded next to every measurement.
struct TopologyStats {
  uint32_t Nodes = 1;
  uint32_t Cpus = 1;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = TopologyStats;
    R("nodes", Gauge, &S::Nodes, "NUMA nodes detected.");
    R("cpus", Gauge, &S::Cpus, "CPUs seen by topology detection.");
  }

  bool operator==(const TopologyStats &) const = default;
};
static_assert(telemetry::describesLayout<TopologyStats>());

/// Counters of the operation-trace recorders (src/replay/) at snapshot
/// time. Aggregated over every recorder ever attached in this process so
/// trace loss (ops dropped by a full buffer, instances passed over by
/// sampling) is observable, not silent.
struct RecorderStats {
  uint64_t Recorders = 0;
  uint64_t OpsRecorded = 0;
  uint64_t OpsDropped = 0;
  uint64_t InstancesSampled = 0;
  uint64_t InstancesSkipped = 0;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = RecorderStats;
    R("recorders", Counter, &S::Recorders, "Trace recorders attached.");
    R("ops_recorded", Counter, &S::OpsRecorded,
      "Ops captured into trace buffers.");
    R("ops_dropped", Counter, &S::OpsDropped,
      "Ops lost to full trace buffers.");
    R("instances_sampled", Counter, &S::InstancesSampled,
      "Instances the trace recorders traced.");
    R("instances_skipped", Counter, &S::InstancesSkipped,
      "Instances the trace recorders passed over by sampling.");
  }

  bool operator==(const RecorderStats &) const = default;
};
static_assert(telemetry::describesLayout<RecorderStats>());

/// Counters of the persistent selection store (src/store/) at snapshot
/// time, so cross-run warm-start behaviour — including graceful
/// degradation on a corrupt store — is observable, not silent.
struct StoreStats {
  uint64_t Loads = 0;
  uint64_t LoadFailures = 0;
  uint64_t SitesLoaded = 0;
  uint64_t WarmStarts = 0;
  uint64_t Persists = 0;
  uint64_t PersistFailures = 0;
  /// Empty when no store is installed.
  std::string Path;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = StoreStats;
    R("loads", Counter, &S::Loads,
      "Selection-store documents loaded (incl. missing).");
    R("load_failures", Counter, &S::LoadFailures,
      "Corrupt or mismatched store documents (cold start).");
    R("sites_loaded", Counter, &S::SitesLoaded,
      "Sites read from store documents.");
    R("warm_starts", Counter, &S::WarmStarts,
      "Contexts seeded from a stored cross-run decision.");
    R("persists", Counter, &S::Persists, "Successful selection-store writes.");
    R("persist_failures", Counter, &S::PersistFailures,
      "Failed selection-store lock or write attempts.");
    R("path", Info, &S::Path, "Path of the engine-installed selection store.");
  }

  bool operator==(const StoreStats &) const = default;
};
static_assert(telemetry::describesLayout<StoreStats>());

/// Counters of the fleet calibration subsystem (src/fleet/) at snapshot
/// time: store push/pull sync traffic (client side), the /store endpoint
/// of this process (server side), every network-input rejection class,
/// and the recalibration promotion gate — so fleet behaviour (including
/// every failure mode) is observable, not silent.
struct FleetStats {
  uint64_t Pulls = 0;
  uint64_t PullFailures = 0;
  uint64_t Pushes = 0;
  uint64_t PushFailures = 0;
  uint64_t Retries = 0;
  uint64_t StoreGets = 0;
  uint64_t MergesApplied = 0;
  uint64_t SitesMerged = 0;
  uint64_t RejectedOversize = 0;
  uint64_t RejectedMalformed = 0;
  uint64_t RejectedIncompatible = 0;
  uint64_t Recalibrations = 0;
  uint64_t Promotions = 0;
  uint64_t PromotionsRejected = 0;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = FleetStats;
    R("pulls", Counter, &S::Pulls, "Store documents pulled from fleet peers.");
    R("pull_failures", Counter, &S::PullFailures,
      "Pulls failed after retries.");
    R("pushes", Counter, &S::Pushes, "Store documents pushed to fleet peers.");
    R("push_failures", Counter, &S::PushFailures,
      "Pushes failed after retries.");
    R("retries", Counter, &S::Retries, "Fleet HTTP request retries.");
    R("store_gets", Counter, &S::StoreGets,
      "Store documents served to peers over /store.");
    R("merges_applied", Counter, &S::MergesApplied,
      "Remote store documents merged into the local store.");
    R("sites_merged", Counter, &S::SitesMerged,
      "Sites received across all remote store merges.");
    R("rejected_oversize", Counter, &S::RejectedOversize,
      "Store transfers rejected for exceeding the size limit.");
    R("rejected_malformed", Counter, &S::RejectedMalformed,
      "Documents the decoder refused.");
    R("rejected_incompatible", Counter, &S::RejectedIncompatible,
      "Fleet artifacts rejected for schema/fingerprint mismatch.");
    R("recalibrations", Counter, &S::Recalibrations,
      "On-device model fits run.");
    R("promotions", Counter, &S::Promotions,
      "Recalibrated models promoted past the hold-out gate.");
    R("promotions_rejected", Counter, &S::PromotionsRejected,
      "Recalibrated models the hold-out gate refused.");
  }

  bool operator==(const FleetStats &) const = default;
};
static_assert(telemetry::describesLayout<FleetStats>());

/// Counters and provenance of the tuned-configuration loader (the
/// `cswitch-tuning-v2` artifacts the offline autotuner emits), so which
/// tuned parameters a process runs under — and every rejected artifact —
/// is observable, not silent. The provenance fields describe the most
/// recently applied artifact (empty/zero when none).
struct TuningStats {
  uint64_t Loads = 0;
  uint64_t LoadFailures = 0;
  std::string Source;
  std::string Fingerprint;
  std::string CorpusDigest;
  uint64_t Sweeps = 0;
  uint64_t Evaluations = 0;
  uint64_t Parameters = 0;
  double WinnerFitness = 0.0;
  double BaselineFitness = 0.0;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = TuningStats;
    R("loads", Counter, &S::Loads, "Tuned-configuration artifacts applied.");
    R("load_failures", Counter, &S::LoadFailures,
      "Tuned-configuration artifacts the loader rejected.");
    R("source", Info, &S::Source, "Artifact origin (file path or <memory>).");
    R("fingerprint", Info, &S::Fingerprint, "Host fingerprint at tune time.");
    R("corpus_digest", Info, &S::CorpusDigest, "Digest of the tuning corpus.");
    R("sweeps", Info, &S::Sweeps, "Coordinate sweeps the search ran.");
    R("evaluations", State, &S::Evaluations, "Fitness evaluations run.");
    R("parameters", State, &S::Parameters, "Parameter rows applied.");
    R("winner_fitness", State, &S::WinnerFitness, "Applied tuned fitness.");
    R("baseline_fitness", State, &S::BaselineFitness, "Paper-default fitness.");
  }

  bool operator==(const TuningStats &) const = default;
};
static_assert(telemetry::describesLayout<TuningStats>());

/// Provenance of the performance model driving selection decisions:
/// where the installed model came from.
struct ModelStats {
  uint64_t Installs = 0;
  std::string Source;

  template <typename Row> static constexpr void fields(Row &&R) {
    using enum MetricKind;
    using S = ModelStats;
    R("installs", Counter, &S::Installs,
      "Performance models installed (builtin or measured).");
    R("source", Info, &S::Source, "<builtin> or the model file's path.");
  }

  bool operator==(const ModelStats &) const = default;
};
static_assert(telemetry::describesLayout<ModelStats>());

/// Process-wide accumulator model installers report through, so the
/// engine's telemetry snapshot (and the /explain.json provenance
/// header) can say which model drives decisions without the support
/// layer depending on the model library — the TuningRegistry pattern.
class ModelRegistry {
public:
  /// The process-wide registry instance.
  static ModelRegistry &global();

  /// Records a model installation: increments Installs and replaces the
  /// provenance fields (\p Provenance counter fields are ignored).
  void recordInstall(const ModelStats &Provenance);

  /// Cumulative counters plus latest provenance since process start.
  ModelStats stats() const;

private:
  mutable std::mutex Mutex;
  ModelStats Counters; ///< Guarded by Mutex.
};

/// Process-wide accumulator the tuned-configuration loader reports
/// through, so the engine's telemetry snapshot can include tuning
/// provenance without the support layer depending on the tuning library
/// — the same decoupling FleetRegistry provides for the fleet.
class TuningRegistry {
public:
  /// The process-wide registry instance.
  static TuningRegistry &global();

  /// Records a successfully applied artifact: increments Loads and
  /// installs \p Provenance (its counter fields are ignored).
  void recordLoad(const TuningStats &Provenance);

  /// Records an artifact the loader rejected.
  void recordFailure();

  /// Cumulative counters plus latest provenance since process start.
  TuningStats stats() const;

private:
  mutable std::mutex Mutex;
  TuningStats Counters; ///< Guarded by Mutex.
};

/// Process-wide accumulator the fleet layer reports through, so the
/// engine's telemetry snapshot can include fleet counters without the
/// support layer (or the core) depending on the fleet library — the
/// same decoupling RecorderRegistry provides for the trace recorders.
/// Counters only ever increase; record() adds a delta.
class FleetRegistry {
public:
  /// The process-wide registry instance.
  static FleetRegistry &global();

  /// Folds \p Delta into the cumulative counters.
  void record(const FleetStats &Delta);

  /// Cumulative counters since process start.
  FleetStats stats() const;

private:
  mutable std::mutex Mutex;
  FleetStats Counters; ///< Guarded by Mutex.
};

/// Process-wide registry the trace recorders report through, so the
/// engine's telemetry snapshot can include recorder counters without the
/// support layer (or the core) depending on the replay library. A live
/// recorder attaches a stats callback; on detach its final counters move
/// into a retired accumulator, keeping every counter monotonic across
/// recorder lifetimes.
class RecorderRegistry {
public:
  using Source = std::function<RecorderStats()>;

  /// The process-wide registry instance.
  static RecorderRegistry &global();

  /// Registers a live stats source; returns the attachment id.
  uint64_t attach(Source StatsSource);

  /// Removes attachment \p Id, folding \p Final into the retired
  /// accumulator.
  void detach(uint64_t Id, const RecorderStats &Final);

  /// Aggregate over retired recorders plus every live source.
  RecorderStats stats() const;

private:
  mutable std::mutex Mutex;
  uint64_t NextId = 1;                                 ///< Guarded by Mutex.
  std::vector<std::pair<uint64_t, Source>> Sources;    ///< Guarded by Mutex.
  RecorderStats Retired;                               ///< Guarded by Mutex.
};

/// One engine-wide observability snapshot: aggregate counters, the
/// per-context breakdown, the state of the event log, the trace
/// recorders' loss accounting, and the selection store's counters.
struct TelemetrySnapshot {
  EngineStats Engine;
  std::vector<ContextSnapshot> Contexts;
  EventLogStats Events;
  RecorderStats Recorder;
  StoreStats Store;
  FleetStats Fleet;
  TuningStats Tuning;
  ModelStats Model;
  EngineLatencies Latency;
  TopologyStats Topology;
};

/// Interval difference between two snapshots: aggregate and event
/// counters subtract saturating; contexts are matched by name (a
/// context present only in \p Now appears verbatim — it is new activity
/// by definition; contexts that vanished are omitted). Variant,
/// footprint and the latency distributions are taken from \p Now
/// (quantiles of a lifetime histogram do not subtract).
TelemetrySnapshot operator-(const TelemetrySnapshot &Now,
                            const TelemetrySnapshot &Before);

} // namespace cswitch

#endif // CSWITCH_SUPPORT_TELEMETRY_H

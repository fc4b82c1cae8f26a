//===- Switch.h - Top-level CollectionSwitch API -----------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level convenience API mirroring the paper's usage (Fig. 4):
///
/// \code
///   static auto Ctx = Switch::makeContext<List<int>>(
///       "MyFile.cpp:42", ListVariant::ArrayList);
///   auto MyList = Ctx->createList();
/// \endcode
///
/// makeContext<Collection>() is the single generic entry point for every
/// abstraction (List<T>, Set<T>, Map<K, V>), used together with the
/// fluent ContextOptions builder:
///
/// \code
///   auto Ctx = Switch::makeContext<Map<int, int>>(
///       "cache", MapVariant::ChainedHashMap, SelectionRule::allocRule(),
///       ContextOptions{}.windowSize(50).finishedRatio(0.5)
///                       .concurrency(Concurrency::Auto));
/// \endcode
///
/// Process-wide configuration flows through one call: configure() takes
/// a SwitchConfig bundling the ContextOptions every subsequent
/// makeContext() defaults to — including the monitoring rate
/// startEngine() paces the background thread at — with the fleet and
/// tuning options. There is no second configuration path.
///
/// Contexts created here share the process-wide performance model (the
/// built-in default until setModel() installs a measured one), default to
/// the Rtime rule, and are automatically registered with — and on
/// destruction unregistered from — the global SwitchEngine.
///
/// Observability: the facade also fronts the telemetry subsystem —
/// stats() for the aggregate counters, telemetry() for the full
/// engine-wide snapshot (serializable via support/MetricsExport.h),
/// drainEvents() for consuming the framework event log, and
/// setReporter() for periodic background reports.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_CORE_SWITCH_H
#define CSWITCH_CORE_SWITCH_H

#include "core/AllocationContext.h"
#include "core/SwitchEngine.h"
#include "support/EventLog.h"

#include <memory>
#include <optional>
#include <string>

namespace cswitch {

/// Fleet-sync knobs of the metrics endpoint (DESIGN.md §12): whether
/// serveMetrics() additionally exposes the selection store to peers,
/// and how large a pushed store document may be.
struct FleetOptions {
  /// When true, serveMetrics() registers /store:
  ///   GET  — the installed store's current knowledge as a serialized
  ///          `cswitch-store-v1` document,
  ///   POST — flock-merge of a peer's document into the local store.
  /// Off by default: a replica only joins the fleet when asked to.
  bool ServeStore = false;
  /// Upper bound on a pushed document; larger bodies are refused with
  /// 413 before being read.
  size_t MaxPushBytes = 4u << 20;

  FleetOptions &serveStore(bool Value = true) {
    ServeStore = Value;
    return *this;
  }
  FleetOptions &maxPushBytes(size_t Value) {
    MaxPushBytes = Value;
    return *this;
  }
};

/// The one process-wide configuration bundle: the context defaults
/// every makeContext() call falls back to when no explicit
/// ContextOptions is passed (see Switch::configure), plus the fleet and
/// tuning options.
struct SwitchConfig {
  /// Defaults for contexts created without explicit options — window
  /// geometry, concurrency mode, and the monitoring rate startEngine()
  /// paces the background thread at.
  ContextOptions Context;
  /// Fleet store-sync exposure of the metrics endpoint (DESIGN.md §12).
  FleetOptions Fleet;
  /// Optional path to a `cswitch-tuning-v2` artifact (produced by the
  /// offline autotuner, DESIGN.md §13) applied on top of the rest of
  /// the configuration: tuned adaptive thresholds install into
  /// AdaptiveConfig, tuned window geometry overlays the context
  /// defaults. An unreadable or invalid artifact is counted in
  /// telemetry and warned about — it never wedges startup. Empty =
  /// none (the `CSWITCH_TUNING` environment variable, checked once per
  /// process, fills the same role for unmodified binaries).
  std::string Tuning;
};

/// Deleter that unregisters a context from the global engine before
/// destroying it, so `Switch::makeContext` handles compose safely.
struct UnregisteringDeleter {
  void operator()(AllocationContextBase *Context) const {
    if (!Context)
      return;
    SwitchEngine::global().unregisterContext(Context);
    delete Context;
  }
};

/// Owning handle for an engine-registered context.
template <typename ContextT>
using ContextHandle = std::unique_ptr<ContextT, UnregisteringDeleter>;

/// Facade over the process-wide CollectionSwitch runtime.
class Switch {
public:
  /// The process-wide performance model consulted by contexts created
  /// through this facade. Defaults to the built-in analytic model.
  static std::shared_ptr<const PerformanceModel> model();

  /// Installs \p Model as the process-wide model (e.g. one measured by
  /// the ModelBuilder for this machine). Existing contexts keep the
  /// model they were created with.
  static void setModel(std::shared_ptr<const PerformanceModel> Model);

  /// Applies \p Config process-wide: the context options become the
  /// defaults of every subsequent makeContext() call that passes none —
  /// the single configuration path.
  static void configure(const SwitchConfig &Config);

  /// The ContextOptions makeContext() currently defaults to (the
  /// built-in defaults until configure() installs others).
  static ContextOptions defaultContextOptions();

  /// Applies the `cswitch-tuning-v2` artifact at \p Path process-wide:
  /// adaptive thresholds install into the global AdaptiveConfig
  /// (validated — see setThresholdsChecked), window geometry overlays
  /// the makeContext() context defaults, and the artifact's provenance
  /// lands in telemetry (TelemetrySnapshot::Tuning). Returns false —
  /// with \p Error describing why, and the failure counted — when the
  /// file is unreadable or the decoder or validators reject it; the
  /// running configuration is unchanged in that case.
  static bool applyTuning(const std::string &Path,
                          std::string *Error = nullptr);

  /// Starts the global engine's background evaluation/reporter thread
  /// at \p MonitoringRate (paper §4.3). No-op when already running.
  static void startEngine(std::chrono::milliseconds MonitoringRate) {
    SwitchEngine::global().start(MonitoringRate);
  }

  /// Starts the background thread at the configured default rate
  /// (ContextOptions::MonitoringRate of the installed SwitchConfig;
  /// 50 ms out of the box).
  static void startEngine() {
    SwitchEngine::global().start(defaultContextOptions().MonitoringRate);
  }

  /// Stops the background thread (persisting the store and flushing a
  /// final telemetry report; see SwitchEngine::stop).
  static void stopEngine() { SwitchEngine::global().stop(); }

  //===--------------------------------------------------------------===//
  // Pull-based introspection endpoint (src/obs/)
  //===--------------------------------------------------------------===//

  /// Starts the opt-in metrics endpoint on 127.0.0.1:\p Port (0 picks
  /// an ephemeral port). Serves
  ///   /metrics        OpenMetrics text (per-site latency summaries,
  ///                   monitoring counters) — curl/Prometheus/
  ///                   `cswitch_top watch` scrape this,
  ///   /snapshot.json  the MetricsExport JSON telemetry document,
  ///   /trace.json     the Perfetto decision-timeline trace,
  ///   /explain.json   the decision provenance ledger (schema
  ///                   cswitch-explain-v1, DESIGN.md §14): per-site
  ///                   decision records with per-dimension cost
  ///                   breakdowns, threshold margins and artifact
  ///                   provenance — `cswitch_explain` consumes this,
  ///   /store          (only with SwitchConfig::Fleet.ServeStore) the
  ///                   selection store for fleet peers — GET serves the
  ///                   serialized document, POST merges a pushed one.
  /// \returns the bound port, or 0 when the endpoint could not start
  /// (port in use, or already serving). One endpoint per process.
  static uint16_t serveMetrics(uint16_t Port = 9100);

  /// Stops the metrics endpoint (no-op when not serving).
  static void stopMetricsServer();

  /// Port the endpoint is bound to, or 0 when not serving.
  static uint16_t metricsPort();

  /// Aggregate monitoring counters over every registered context: the
  /// runtime's own report of how much work the always-on monitoring
  /// pipeline performed (paper §5.3's overhead discussion). Bracket a
  /// workload with two calls and subtract (EngineStats operator-) for
  /// interval behaviour.
  static EngineStats stats() { return SwitchEngine::global().stats(); }

  /// Full engine-wide observability snapshot (aggregate + per-context
  /// breakdown + event-log counters); serialize it with
  /// support/MetricsExport.h.
  static TelemetrySnapshot telemetry() {
    return SwitchEngine::global().telemetry();
  }

  /// Consumes and returns the framework events recorded since the last
  /// drainEvents() (or EventLog clear). This is how benchmarks harvest
  /// transition trails (Table 6) without reaching into EventLog::global().
  static std::vector<Event> drainEvents() {
    return EventLog::global().drain();
  }

  /// Installs the periodic telemetry reporter on the global engine (see
  /// SwitchEngine::setReporter; reports flow while the background
  /// thread runs).
  static void setReporter(ReporterOptions Options) {
    SwitchEngine::global().setReporter(std::move(Options));
  }

  /// Removes the periodic telemetry reporter.
  static void clearReporter() { SwitchEngine::global().clearReporter(); }

  /// Installs the persistent selection store backed by \p Path on the
  /// global engine and loads it (see SwitchEngine::loadStore). Returns
  /// false when the document was corrupt — the process degrades to cold
  /// start, it never fails.
  static bool loadStore(const std::string &Path, StoreOptions Options = {}) {
    return SwitchEngine::global().loadStore(Path, Options);
  }

  /// The installed selection store (null when none).
  static std::shared_ptr<SelectionStore> store() {
    return SwitchEngine::global().store();
  }

  /// Merges this process's contributions into the store file now.
  static bool persistStore() {
    return SwitchEngine::global().persistStore();
  }

  /// Persists (best effort) and uninstalls the selection store.
  static void closeStore() { SwitchEngine::global().closeStore(); }

  /// Serialized `cswitch-store-v1` export of the installed store's
  /// current knowledge (see SwitchEngine::exportStore). Empty when no
  /// store is installed.
  static std::string exportStore() {
    return SwitchEngine::global().exportStore();
  }

  /// Flock-merges a peer's serialized store document into the installed
  /// store (see SwitchEngine::mergeRemoteStore).
  static bool mergeRemoteStore(std::string_view Bytes,
                               std::string *Error = nullptr,
                               uint64_t *SitesMerged = nullptr) {
    return SwitchEngine::global().mergeRemoteStore(Bytes, Error, SitesMerged);
  }

  /// Creates and registers an allocation context for \p Collection
  /// (List<T>, Set<T> or Map<K, V>) — the sole public construction
  /// path. When \p Options is not passed, the context uses the defaults
  /// installed by configure().
  template <typename Collection>
  static ContextHandle<typename ContextTraits<Collection>::Context>
  makeContext(std::string Name,
              typename ContextTraits<Collection>::Variant Initial,
              SelectionRule Rule = SelectionRule::timeRule(),
              std::optional<ContextOptions> Options = std::nullopt) {
    using ContextT = typename ContextTraits<Collection>::Context;
    ContextHandle<ContextT> Ctx(new ContextT(
        std::move(Name), Initial, model(), std::move(Rule),
        Options ? *Options : defaultContextOptions()));
    SwitchEngine::global().registerContext(Ctx.get());
    return Ctx;
  }
};

} // namespace cswitch

#endif // CSWITCH_CORE_SWITCH_H

//===- SwitchEngine.h - Context registry and evaluation thread --*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine that drives the periodic analysis of allocation contexts
/// (paper §4.3: "a periodic task is scheduled at a parametrized fixed
/// rate (monitoring rate)"). Contexts register with the engine; a
/// background thread evaluates every registered context at the monitoring
/// rate (paper default: 50 ms). evaluateAll() allows driving the same
/// analysis synchronously, which deterministic tests and single-threaded
/// harnesses use.
///
/// The registry is one vector under one mutex, in registration order;
/// evaluateAll() evaluates the contexts sequentially in that order, on
/// the calling thread, so it is fully deterministic. Context
/// evaluation is thread-safe, so the background thread and a manual
/// evaluateAll() may run at the same time.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_CORE_SWITCHENGINE_H
#define CSWITCH_CORE_SWITCHENGINE_H

#include "core/AllocationContext.h"
#include "store/SelectionStore.h"
#include "support/Telemetry.h"

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cswitch {

// EngineStats (the aggregate monitoring statistics over every
// registered context — the facade-level report of the §5.3 overhead
// discussion) lives in support/Telemetry.h together with the rest of
// the telemetry schema, so exporters need no core dependency.

/// Configuration of the engine's periodic telemetry reporter. The
/// reporter piggybacks on the background evaluation thread (start()):
/// after each evaluation sweep it checks whether Interval elapsed and,
/// if so, emits an engine-wide TelemetrySnapshot to Sink.
struct ReporterOptions {
  /// Minimum time between two reports.
  std::chrono::milliseconds Interval{1000};
  /// Receives each snapshot; invoked on the background thread, outside
  /// any engine lock. Must not be empty.
  std::function<void(const TelemetrySnapshot &)> Sink;
};

/// Registry of live allocation contexts plus the periodic evaluator.
class SwitchEngine {
public:
  /// Returns the process-wide engine.
  static SwitchEngine &global();

  SwitchEngine();
  ~SwitchEngine();

  SwitchEngine(const SwitchEngine &) = delete;
  SwitchEngine &operator=(const SwitchEngine &) = delete;

  /// Registers \p Context for periodic evaluation. The caller retains
  /// ownership and must call unregisterContext before destroying it.
  void registerContext(AllocationContextBase *Context);

  /// Removes \p Context from the registry (no-op if absent).
  void unregisterContext(AllocationContextBase *Context);

  /// Evaluates every registered context once, sequentially on the
  /// calling thread and in registration order; returns the number of
  /// contexts that performed a transition.
  size_t evaluateAll();

  /// Starts the background evaluation thread at the given monitoring
  /// rate (paper default 50 ms). No-op if already running.
  void start(std::chrono::milliseconds MonitoringRate =
                 std::chrono::milliseconds(50));

  /// Stops the background thread (blocks until it exits). No-op if not
  /// running.
  void stop();

  /// True while the background thread is running.
  bool isRunning() const;

  /// Number of registered contexts.
  size_t contextCount() const;

  /// Sum of switchCount() over all registered contexts.
  uint64_t totalSwitches() const;

  /// Aggregated counters over all registered contexts.
  EngineStats stats() const;

  /// Full observability snapshot: aggregate stats, the per-context
  /// breakdown (name, abstraction, current variant, counters,
  /// footprint), and the global event-log counters. This is what the
  /// periodic reporter emits and what MetricsExport serializes.
  TelemetrySnapshot telemetry() const;

  /// Installs (or replaces) the periodic telemetry reporter. Reports
  /// are emitted from the background thread, so they only flow while
  /// the engine is running (start()). Pass an Options.Sink; an empty
  /// sink is equivalent to clearReporter().
  void setReporter(ReporterOptions Options);

  /// Removes the reporter. An in-flight report may still complete.
  void clearReporter();

  /// Emits one report to the installed sink immediately, regardless of
  /// the periodic interval (which is restarted). No-op without a sink.
  /// stop() and closeStore() call this so the final histogram snapshot
  /// and store counters reach the sink before the process goes quiet.
  void flushReport();

  //===--------------------------------------------------------------===//
  // Persistent selection store (src/store/)
  //===--------------------------------------------------------------===//

  /// Installs a selection store backed by the file at \p Path and loads
  /// it. \returns the load outcome: true for a successful load
  /// (including the normal missing-file cold start), false when the
  /// document was corrupt or version-mismatched — the store is
  /// installed either way and degrades to cold start, so contexts
  /// created with ContextOptions::warmStart simply find nothing.
  /// Replaces any previously installed store without persisting it.
  bool loadStore(const std::string &Path, StoreOptions Options = {});

  /// The installed selection store (null when none). Contexts resolve
  /// this when ContextOptions::Store is unset.
  std::shared_ptr<SelectionStore> store() const;

  /// Merges this process's contributions (finished contexts folded at
  /// unregisterContext plus the live contexts' lifetime aggregates)
  /// into the store file now. \returns false when no store is installed
  /// or the persist failed. Also runs periodically on the background
  /// thread when StoreOptions::PersistInterval is set, and once from
  /// stop().
  bool persistStore();

  /// Persists (best effort) and uninstalls the store.
  void closeStore();

  /// Serialized `cswitch-store-v1` export of the installed store's
  /// current knowledge: the loaded base document plus this process's
  /// contributions (finished contexts and the live contexts' lifetime
  /// aggregates). Pure read — nothing touches disk. Empty string when
  /// no store is installed. This is what the fleet /store GET serves.
  std::string exportStore() const;

  /// Decodes \p Bytes as a `cswitch-store-v1` document and flock-merges
  /// it into the installed store (file + in-memory base; see
  /// SelectionStore::mergeRemote). \returns false when no store is
  /// installed, the document is malformed, or the merge failed, with
  /// \p Error describing the problem. \p SitesMerged (when non-null)
  /// receives the number of remote sites folded in. This is what the
  /// fleet /store POST applies.
  bool mergeRemoteStore(std::string_view Bytes, std::string *Error = nullptr,
                        uint64_t *SitesMerged = nullptr);

  /// Snapshots emitted by the periodic reporter so far.
  uint64_t reportsEmitted() const {
    return ReportsEmitted.load(std::memory_order_relaxed);
  }

private:
  /// Emits a telemetry report if the reporter is due; called by the
  /// background thread after each evaluation sweep, without holding
  /// ThreadMutex.
  void maybeReport();
  /// Persists the store if its periodic interval elapsed; called by the
  /// background thread after each sweep, without holding ThreadMutex.
  void maybePersistStore();
  void threadMain(std::chrono::milliseconds Rate);
  /// Copy of the registry: evaluation and store gathering run without
  /// RegistryMutex, so a slow evaluation never blocks registration.
  std::vector<AllocationContextBase *> snapshotContexts() const;

  /// Registered contexts in registration order.
  mutable std::mutex RegistryMutex;
  std::vector<AllocationContextBase *> Contexts; ///< Guarded by RegistryMutex.

  mutable std::mutex ThreadMutex;
  std::condition_variable StopCondition;
  std::thread Worker;
  bool Running = false;
  bool StopRequested = false;

  /// Periodic reporter state. The sink is copied out under ReporterMutex
  /// and invoked without it, so a slow sink never blocks reconfiguration
  /// for longer than one report.
  mutable std::mutex ReporterMutex;
  ReporterOptions Reporter;                         ///< Guarded by ReporterMutex.
  std::chrono::steady_clock::time_point NextReport; ///< Guarded by ReporterMutex.
  std::atomic<uint64_t> ReportsEmitted{0};

  /// Selection-store state. The shared_ptr is copied out under
  /// StoreMutex and used without it, so a slow persist (file I/O under
  /// flock) never blocks context registration or warm-start lookups.
  mutable std::mutex StoreMutex;
  std::shared_ptr<SelectionStore> Store;             ///< Guarded by StoreMutex.
  std::string StorePath;                             ///< Guarded by StoreMutex.
  std::chrono::steady_clock::time_point NextPersist; ///< Guarded by StoreMutex.
};

} // namespace cswitch

#endif // CSWITCH_CORE_SWITCHENGINE_H

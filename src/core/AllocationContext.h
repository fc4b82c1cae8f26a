//===- AllocationContext.h - Adaptive allocation contexts -------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive allocation context (paper §3.1, §4.3): the instrumented
/// form of a collection allocation site. A context
///
///   1. instantiates collections of its current variant,
///   2. monitors a window of created instances (window size, paper: 100),
///   3. once enough monitored instances finished their life-cycle
///      (finished ratio, paper: 0.6), aggregates their workload profiles
///      into total costs TC_D(V) for every candidate variant using the
///      performance model, and
///   4. switches the variant used for future instantiations when the
///      selection rule finds a better candidate, then starts a new
///      monitoring round.
///
/// AllocationContextBase holds all abstraction-independent machinery;
/// AllocationContext<Facade> adds the typed create path and the spare
/// ring, and ListContext<T> / SetContext<T> / MapContext<K, V> the
/// create*() factory the application calls instead of a constructor
/// (paper Fig. 4: `ctx.createList()`).
///
/// Lifetime: a context must outlive every collection it created,
/// monitored or not — the paper's recommendation of static (per-site)
/// contexts gives exactly that. Instance death is detected by the
/// collection facade destructor reporting the workload profile back
/// (DESIGN.md §1 discusses this substitution for Java's WeakReference
/// polling), and a sequential context's instances hand their
/// implementation back to its spare ring when they die (DESIGN.md
/// §4.4).
///
/// Concurrency (DESIGN.md §4, "lock-free monitoring window"): both
/// per-instance paths — slot acquisition at creation and profile
/// publication at destruction — are lock-free. The monitoring window is
/// double-buffered; rounds rotate with a single CAS on a packed
/// (round, assigned) word and the retired buffer is analyzed off the
/// hot path. Only evaluate() takes a mutex, and only to serialize
/// analysis with other evaluators.
///
/// Back-off (DESIGN.md §4.3): once the keep streak passes
/// ConvergedKeepStreak, rounds open *dormant* — full from the start, so
/// no instance claims a slot — and stay dormant for 2^k - 1 evaluate()
/// calls and (2^k - 1) windows of created instances, k capped at
/// MaxBackoffLevel. A switch or a capacity-hint move re-arms k to 0.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_CORE_ALLOCATIONCONTEXT_H
#define CSWITCH_CORE_ALLOCATIONCONTEXT_H

#include "collections/Factory.h"
#include "core/SelectionRule.h"
#include "core/SpareRing.h"
#include "core/VariantSelection.h"
#include "model/CostModel.h"
#include "obs/Profiling.h"
#include "obs/Provenance.h"
#include "profile/ContentionSketch.h"
#include "profile/WorkloadProfile.h"
#include "replay/TraceRecorder.h"
#include "support/Telemetry.h"
#include "support/Topology.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace cswitch {

class SelectionStore;

/// Per-kind facts of a collection facade; defined below the contexts.
template <typename Collection> struct ContextTraits;

/// Tuning knobs of an allocation context (defaults follow the paper §5).
///
/// Plain aggregate with a fluent builder spelling on top; both styles
/// configure the same fields:
/// \code
///   ContextOptions O;
///   O.WindowSize = 50;                     // aggregate style
///   auto P = ContextOptions{}.windowSize(50).finishedRatio(0.5)
///                            .logEvents(false);  // fluent style
/// \endcode
struct ContextOptions {
  /// Number of instances monitored per round (paper: 100).
  size_t WindowSize = 100;
  /// Fraction of the window that must have finished before the round is
  /// analyzed (paper: 0.6).
  double FinishedRatio = 0.6;
  /// Record transition/evaluation events in the global EventLog.
  bool LogEvents = true;
  /// Minimum max-size spread (max/min ratio) for adaptive variants to be
  /// considered "widely ranging" (§3.2); they also qualify whenever the
  /// observed sizes straddle the adaptive threshold.
  double WideRangeFactor = 4.0;
  /// Operation-trace recorder (src/replay/); when set, the context
  /// registers its site and instances sampled by the recorder trace
  /// every operation. Not owned; must outlive the context and every
  /// collection it creates.
  TraceRecorder *Recorder = nullptr;
  /// Seed the initial variant from the persistent selection store when
  /// the site has a stored decision (src/store/): the context starts on
  /// the converged variant of previous runs and shrinks its first
  /// observation window to a quarter (never below one slot). Warm
  /// contexts keep monitoring — the paper's continuous adaptation —
  /// just with a cheaper ramp. A miss (or a corrupt / absent store)
  /// leaves the context exactly cold.
  bool WarmStart = false;
  /// Selection store consulted for warm starts. When null, the engine's
  /// installed store (SwitchEngine::loadStore) is used. Not owned; must
  /// outlive the context.
  SelectionStore *Store = nullptr;
  /// Period of the engine's background evaluation/reporter thread
  /// (paper §4.3 "monitoring rate", default 50 ms). Consumed by
  /// Switch::startEngine() via the Switch::configure defaults — a
  /// per-process knob carried here so one options object can configure
  /// a whole deployment; contexts themselves ignore it.
  std::chrono::milliseconds MonitoringRate{50};
  /// Per-context override of the adaptive-collection transition
  /// thresholds (paper §3.2, Table 1). When set, adaptive variants
  /// created by this context — and the context's own wide-range /
  /// straddle analysis — use these thresholds instead of the
  /// process-wide AdaptiveConfig. This is how simulated policies apply
  /// thresholds without touching global state (race-free under parallel
  /// evaluation).
  std::optional<AdaptiveThresholds> AdaptiveOverride;
  /// Synchronization tier of the site (DESIGN.md §11). None (default)
  /// selects among the sequential variants only — collections must stay
  /// single-owner. Mutex / Sharded pin the corresponding concurrent
  /// strategy; Auto lets the contention signal choose among the
  /// concurrent strategies. Any mode but None makes created facades
  /// thread-safe to operate on from multiple threads (the underlying
  /// variant synchronizes, and profiling switches to the per-cpu-striped
  /// SharedProfile).
  Concurrency ConcurrencyMode = Concurrency::None;

  ContextOptions &windowSize(size_t Value) {
    WindowSize = Value;
    return *this;
  }
  ContextOptions &finishedRatio(double Value) {
    FinishedRatio = Value;
    return *this;
  }
  ContextOptions &logEvents(bool Value) {
    LogEvents = Value;
    return *this;
  }
  ContextOptions &wideRangeFactor(double Value) {
    WideRangeFactor = Value;
    return *this;
  }
  ContextOptions &recorder(TraceRecorder *Value) {
    Recorder = Value;
    return *this;
  }
  ContextOptions &warmStart(bool Value) {
    WarmStart = Value;
    return *this;
  }
  ContextOptions &store(SelectionStore *Value) {
    Store = Value;
    return *this;
  }
  ContextOptions &monitoringRate(std::chrono::milliseconds Value) {
    MonitoringRate = Value;
    return *this;
  }
  ContextOptions &adaptiveThresholds(const AdaptiveThresholds &Value) {
    AdaptiveOverride = Value;
    return *this;
  }
  ContextOptions &concurrency(Concurrency Value) {
    ConcurrencyMode = Value;
    return *this;
  }
};

/// Abstraction-independent allocation-context machinery.
///
/// Thread-safe: instances may be created, finish, and be evaluated from
/// different threads concurrently. Creation and destruction of monitored
/// instances are lock-free (one CAS each); unmonitored creation while
/// the window is full is a single atomic load.
class AllocationContextBase : public ProfileSink {
public:
  /// Cap of the back-off exponent: a converged site analyzes at least
  /// one round in 2^MaxBackoffLevel evaluate() calls, which bounds how
  /// late it notices a phase change.
  static constexpr uint32_t MaxBackoffLevel = 4;

  AllocationContextBase(std::string Name, AbstractionKind Kind,
                        unsigned InitialVariantIndex,
                        std::shared_ptr<const PerformanceModel> Model,
                        SelectionRule Rule, ContextOptions Options);

  ~AllocationContextBase() override;

  AllocationContextBase(const AllocationContextBase &) = delete;
  AllocationContextBase &operator=(const AllocationContextBase &) = delete;

  /// Analyzes the current monitoring round if the finished ratio has been
  /// reached; may switch the current variant. \returns true if a
  /// transition happened. On a dormant round (back-off) it only counts
  /// the call and reopens the window live once the round has lasted
  /// long enough. Called periodically by the SwitchEngine, or manually
  /// for deterministic tests. Serialized internally; safe to call
  /// concurrently with instance creation and destruction.
  bool evaluate();

  // ProfileSink: called by dying monitored collection facades. Lock-free.
  void onInstanceFinished(size_t Slot,
                          const WorkloadProfile &Profile) override;

  /// Site name used in logs and reports.
  const std::string &name() const { return Name; }

  /// The abstraction this site allocates.
  AbstractionKind abstraction() const { return Kind; }

  /// Index of the variant future instantiations will use.
  unsigned currentVariantIndex() const {
    return Current.load(std::memory_order_relaxed);
  }

  /// Tagged id of the current variant.
  VariantId currentVariant() const {
    return {Kind, currentVariantIndex()};
  }

  /// Total collections created through this context.
  uint64_t instancesCreated() const {
    return Hot.Created.load(std::memory_order_relaxed);
  }

  /// Total instances that were monitored (assigned a window slot).
  uint64_t instancesMonitored() const {
    return Hot.Monitored.load(std::memory_order_relaxed);
  }

  /// Total monitored instances whose profile was published into a window
  /// (finished while their round was still live).
  uint64_t instancesFinished() const {
    return Hot.Finished.load(std::memory_order_relaxed);
  }

  /// Total monitored instances whose profile was discarded because they
  /// outlived their monitoring round (stale stragglers).
  uint64_t profilesDiscarded() const {
    return Hot.Discarded.load(std::memory_order_relaxed);
  }

  /// Completed analysis rounds.
  uint64_t evaluationCount() const {
    return Evaluations.load(std::memory_order_relaxed);
  }

  /// Capacity every new instance is reserved at (0 = none): the lower
  /// median of the maximum sizes the last analyzed round's instances
  /// reached, weighted by instance count. Set by every analysis round
  /// that consumed a profile; an empty round keeps the previous hint
  /// (DESIGN.md §4.2).
  size_t capacityHint() const {
    return CapacityHint.load(std::memory_order_relaxed);
  }

  /// One-shot growth target new instances get when it exceeds
  /// capacityHint() (0 = none): the upper decile of the same maximum
  /// sizes, weighted the same way and set by the same rounds. An
  /// instance's first growth past its reservation goes straight to it
  /// (DESIGN.md §4.2). Unlike the capacity hint, it neither re-arms
  /// back-off nor moves the spare ring's byte bound.
  size_t growthHint() const {
    return GrowthHint.load(std::memory_order_relaxed);
  }

  /// Variant transitions performed.
  uint64_t switchCount() const {
    return Switches.load(std::memory_order_relaxed);
  }

  /// Monitoring rounds skipped by back-off (dormant rounds opened).
  uint64_t roundsSkipped() const {
    return RoundsSkipped.load(std::memory_order_relaxed);
  }

  /// Back-off exponent k of the current keep streak: 0 while the site
  /// has not converged (every round is analyzed), at most
  /// MaxBackoffLevel.
  uint32_t backoffLevel() const {
    std::lock_guard<std::mutex> Lock(EvalMutex);
    return backoffLevelLocked();
  }

  /// True while the current monitoring round is dormant.
  bool roundDormant() const {
    std::lock_guard<std::mutex> Lock(EvalMutex);
    return Dormant;
  }

  /// All monitoring counters batched into one value (the unit the
  /// telemetry layer snapshots; each individual accessor above reads the
  /// same atomics).
  ContextStats stats() const {
    ContextStats S;
    S.InstancesCreated = instancesCreated();
    S.InstancesMonitored = instancesMonitored();
    S.ProfilesPublished = instancesFinished();
    S.ProfilesDiscarded = profilesDiscarded();
    S.Evaluations = Evaluations.load(std::memory_order_relaxed);
    S.Switches = Switches.load(std::memory_order_relaxed);
    S.RoundsSkipped = RoundsSkipped.load(std::memory_order_relaxed);
    return S;
  }

  /// Approximate bytes of memory this context occupies, including both
  /// monitoring window buffers (the paper reports ~1 KB per context,
  /// §5.3; window slots here store compact fixed-width profiles to keep
  /// the doubled window within the same budget as the single-buffered
  /// design) and the spares it holds for reuse (DESIGN.md §4.4).
  size_t memoryFootprint() const;

  /// The rule this context selects by.
  const SelectionRule &rule() const { return Rule; }

  /// The options this context runs with (reflecting any warm-start
  /// window shrink applied at construction).
  const ContextOptions &options() const { return Options; }

  /// True when this context seeded its initial variant from the
  /// selection store.
  bool warmStarted() const { return WarmStarted; }

  /// Synchronization tier of this site (ContextOptions::ConcurrencyMode).
  Concurrency concurrencyMode() const { return Options.ConcurrencyMode; }

  /// Smoothed estimate of the distinct threads operating on this
  /// context's collections (0 until the first analysis round with
  /// enough operations; see ContentionPolicy). This is the argument of
  /// the contention cost polynomials.
  double contendedThreads() const {
    return ContendedThreads.load(std::memory_order_relaxed);
  }

  /// The context's contention sketch; null for sequential contexts (and
  /// when ContentionPolicy::Enabled is off).
  ContentionSketch *contentionSketch() const { return Sketch.get(); }

  /// Bitmap of variants this context may select among: model coverage
  /// intersected with the concurrency tier, plus the (possibly pinned)
  /// initial variant.
  uint32_t candidateMask() const { return CandidateMask; }

  /// Lifetime workload aggregate over every analyzed instance (the
  /// merge of all consumed window slots since construction); \p
  /// Instances receives how many instances it covers. This is what the
  /// selection store persists for this site.
  WorkloadProfile aggregateProfile(uint64_t &Instances) const;

  /// This site's continuous-profiling entry (interned in the global
  /// ProfilingRegistry, so it aggregates across context lifetimes).
  /// Never null.
  const obs::SiteProfile *siteProfile() const { return Prof; }

protected:
  /// The one create body behind createList/createSet/createMap (paper
  /// Fig. 4): an instance of the current variant, monitored when it
  /// claims a window slot, reserved at capacityHint() with growthHint()
  /// as its one-shot growth target when larger. In a concurrent
  /// tier (ContextOptions::concurrency) the instance profiles through
  /// the thread-safe SharedProfile and may be operated on from multiple
  /// threads; otherwise it reuses a spare of \p Spares when one is held,
  /// hands its implementation back there when it dies, and a context
  /// with a recorder offers it for tracing (the trace cursor is
  /// single-owner, so tracing stays sequential-only). \p Spares is null
  /// in a concurrent tier. The per-kind facts come from ContextTraits.
  template <typename Facade>
  Facade
  createInstance(SpareRing<typename ContextTraits<Facade>::Impl> *Spares) {
    using Traits = ContextTraits<Facade>;
    unsigned Index = currentVariantIndex();
    size_t Slot = acquireMonitorSlot();
    auto Impl = Spares ? Spares->take(Index) : nullptr;
    if (!Impl)
      Impl = Traits::makeImpl(static_cast<typename Traits::Variant>(Index),
                              adaptiveOverride());
    // The growth hint is at least the capacity hint, so 0 means no hint.
    if (size_t Growth = growthHint()) {
      size_t Hint = capacityHint();
      Impl->reserve(Hint, Growth > Hint ? Growth : 0);
    }
    Facade Out = Slot == NoSlot ? Facade(std::move(Impl))
                                : Facade(std::move(Impl), this, Slot);
    if (!Spares) {
      Out.enableSharedProfiling(contentionSketch());
      return Out;
    }
    Out.recycleInto(Spares);
    if (TraceRecorder *Rec = recorder()) {
      uint32_t Instance;
      if (Rec->beginInstance(recorderSite(), Instance))
        Out.attachRecorder(Rec, recorderSite(), Instance);
    }
    return Out;
  }

  /// Called by evaluate(), EvalMutex held, after a round switched the
  /// variant or moved the capacity hint.
  virtual void selectionMoved() {}

  /// Bytes of the typed layer, its spare ring included, and of the
  /// spares it holds for reuse (counted by memoryFootprint()).
  virtual size_t spareBytes() const { return 0; }

  /// The context's adaptive-threshold override, or nullptr when it uses
  /// the process-wide AdaptiveConfig (ContextOptions::AdaptiveOverride).
  const AdaptiveThresholds *adaptiveOverride() const {
    return Options.AdaptiveOverride ? &*Options.AdaptiveOverride : nullptr;
  }

private:
  /// Sentinel: instance is not monitored.
  static constexpr size_t NoSlot = SIZE_MAX;

  /// Reserves a monitoring slot in the current round, or NoSlot when the
  /// window is full. Also counts the creation. Slots encode the round in
  /// their upper 32 bits so that stale instances finishing after a round
  /// rotation are discarded rather than polluting a later round.
  /// Lock-free: one CAS on the packed (round, assigned) word plus one
  /// release-store claiming the slot. 1-in-64 calls per thread are timed
  /// into the site's Record histogram (obs::shouldSampleRecord).
  size_t acquireMonitorSlot();

  /// The operation-trace recorder this context records into (nullptr
  /// when tracing is off) and this site's index in its site table.
  TraceRecorder *recorder() const { return Options.Recorder; }
  uint32_t recorderSite() const { return RecorderSite; }

  /// Life-cycle of one window slot within a round R. Transitions:
  ///   Idle/stale --store--> Claimed(R)      [creator, after winning CAS
  ///                                          on the RoundState word]
  ///   Claimed(R) --CAS--> Writing(R)        [finisher; grants exclusive
  ///                                          write access to the slot
  ///                                          profile]
  ///   Writing(R) --store--> Finished(R)     [finisher; release-publishes
  ///                                          the profile]
  ///   Claimed(R) --CAS--> Closed(R)         [analyzer; locks stale
  ///                                          stragglers out of the slot]
  /// The analyzer consumes Finished(R) slots and briefly spins on
  /// Writing(R) slots (a finisher is mid-publication); a finisher whose
  /// Claimed->Writing CAS fails discards its profile.
  enum class SlotStatus : uint64_t {
    Claimed = 0,
    Writing = 1,
    Finished = 2,
    Closed = 3,
  };

  /// Slot state never taken by any live round (rounds are 32-bit).
  static constexpr uint64_t IdleSlotState = UINT64_MAX;

  static constexpr uint64_t slotState(uint32_t Round, SlotStatus Status) {
    return (static_cast<uint64_t>(Round) << 2) |
           static_cast<uint64_t>(Status);
  }

  /// One monitoring slot. The profile is stored compactly (saturating
  /// 32-bit counters) so the double-buffered window stays within the
  /// §5.3 per-context memory budget.
  struct WindowSlot {
    std::atomic<uint64_t> State{IdleSlotState};
    std::array<uint32_t, NumOperationKinds> Counts = {};
    uint32_t MaxSize = 0;
  };

  /// First slot of the buffer used by \p Round.
  WindowSlot *bufferOf(uint32_t Round) {
    return Slots.get() + (Round & 1) * Options.WindowSize;
  }

  /// Analysis of the retired round \p Round with \p Assigned claimed
  /// slots; EvalMutex must be held. Consumes finished slots, closes
  /// unfinished ones, merges profiles per distinct maximum size and
  /// runs the site decision (decideSite) on the groups.
  std::optional<unsigned> analyzeRound(uint32_t Round, size_t Assigned);

  /// Seeds Current (and shrinks Options.WindowSize) from the selection
  /// store when Options.WarmStart hits a stored decision; called from
  /// the constructor before the window buffers are sized.
  void applyWarmStart();

  /// Keep streak after which a kept decision records as converged in
  /// the provenance ledger (DESIGN.md §14). Back-off starts one keep
  /// later.
  static constexpr uint32_t ConvergedKeepStreak = 3;

  /// k = min(KeepStreak - ConvergedKeepStreak, MaxBackoffLevel), or 0
  /// below convergence. EvalMutex held.
  uint32_t backoffLevelLocked() const {
    if (KeepStreak <= ConvergedKeepStreak)
      return 0;
    return std::min(KeepStreak - ConvergedKeepStreak, MaxBackoffLevel);
  }

  /// Interns this site's provenance ledger (and allocates the pending
  /// decision scratch) on first call; EvalMutex must be held (or the
  /// context still under construction). Only called when the
  /// provenance registry is enabled.
  void resolveLedger();

  /// Fills PendingDecision with the full explanation of one analysis
  /// round — per-dimension breakdowns of every candidate, criterion
  /// ratios, adaptive-gate evidence — copied from the round's
  /// decision. EvalMutex held.
  void capturePendingDecision(uint32_t Round, const DecisionInputs &In,
                              const SiteDecision &Decision);

  /// Finalizes the captured decision (outcome + the keep streak
  /// evaluate() already updated) and publishes it into the ledger.
  /// No-op when nothing was captured this round. EvalMutex held.
  void recordPendingDecision(bool Switched);

  const std::string Name;
  const AbstractionKind Kind;
  const std::shared_ptr<const PerformanceModel> Model;
  const SelectionRule Rule;
  /// Non-const only for the constructor-time warm-start window shrink;
  /// immutable afterwards.
  ContextOptions Options;
  /// Dimensions referenced by the rule's criteria; without a ledger,
  /// analysis only prices these (evaluating unused cost polynomials
  /// would only inflate the §5.3 overhead).
  std::array<bool, NumCostDimensions> UsedDimensions = {};
  /// Bit V set iff the model covers variant V of this abstraction;
  /// precomputed once (the model is immutable) so analysis never
  /// re-scans polynomials.
  uint32_t CoverageMask = 0;
  /// Bit V set iff variant V is in this context's concurrency tier (or
  /// is the explicitly requested initial variant); analysis only lets
  /// variants in CoverageMask & CandidateMask compete.
  uint32_t CandidateMask = 0;
  /// Interned EventLog id of Name, and of each variant's display name
  /// (index = variant index); populated only when Options.LogEvents so
  /// the evaluation-path record() calls pass ids instead of building
  /// strings.
  uint32_t LogNameId = 0;
  std::vector<uint32_t> VariantNameIds;
  /// Index of this site in the recorder's site table (meaningful only
  /// when Options.Recorder is set; registered in the constructor).
  uint32_t RecorderSite = 0;
  /// This site's latency histograms, resolved once from the global
  /// ProfilingRegistry (a pointer, not a member: the histograms outlive
  /// the context and stay out of its §5.3 memory footprint).
  obs::SiteProfile *Prof = nullptr;

  std::atomic<unsigned> Current;
  /// See capacityHint() and growthHint(); written by analyzeRound under
  /// EvalMutex.
  std::atomic<uint32_t> CapacityHint{0};
  std::atomic<uint32_t> GrowthHint{0};
  /// Thread-cardinality sketch feeding the contention dimension; created
  /// only for concurrent contexts (see contentionSketch()).
  std::unique_ptr<ContentionSketch> Sketch;
  /// EWMA of the sketch's estimate, refreshed once per analysis round
  /// (ContentionPolicy::Smoothing / MinOps).
  std::atomic<double> ContendedThreads{0.0};
  /// Per-instance counters: bumped on every instance creation and
  /// destruction, so they share one line of their own, away from the
  /// read-mostly fields above and from RoundState. Evaluations and
  /// Switches are monitoring-rate-paced and need no line of their own.
  struct alignas(CacheLineBytes) HotCounters {
    std::atomic<uint64_t> Created{0};
    std::atomic<uint64_t> Monitored{0};
    std::atomic<uint64_t> Finished{0};
    std::atomic<uint64_t> Discarded{0};
  } Hot;
  std::atomic<uint64_t> Evaluations{0};
  std::atomic<uint64_t> Switches{0};
  std::atomic<uint64_t> RoundsSkipped{0};

  /// Packed (round << 32 | assigned) word: the single point of
  /// contention on the creation path. Claimed by CAS; rotated by
  /// evaluate() with a CAS that resets the assigned count (to
  /// WindowSize when the new round opens dormant). On its own
  /// cache line: every instance creation CASes here, and false sharing
  /// with the read-mostly fields above showed up in the contended
  /// sweep (EXPERIMENTS.md, false-sharing audit).
  alignas(CacheLineBytes) std::atomic<uint64_t> RoundState{0};
  /// Packed (round << 32 | finished) publication counters, one per
  /// window buffer. The round tag makes stale increments from stragglers
  /// fail their CAS instead of corrupting a later round's count. Each
  /// on its own line: buffer (round & 1) is CAS-hammered by finishers
  /// while the other is read by the analyzer.
  struct alignas(CacheLineBytes) PaddedWord {
    std::atomic<uint64_t> Value{0};
  };
  std::array<PaddedWord, 2> FinishedState;
  /// Double-buffered window: buffer (round & 1) is live, the other one
  /// is being analyzed or idle. 2 * WindowSize slots.
  std::unique_ptr<WindowSlot[]> Slots;

  /// Serializes evaluate() (round rotation + analysis) with itself and
  /// with memoryFootprint()'s read of the scratch capacity; the
  /// per-instance paths never touch it.
  mutable std::mutex EvalMutex;
  /// Analysis scratch, guarded by EvalMutex; reused across rounds so
  /// steady-state analysis does not allocate.
  std::vector<SizeGroup> Groups;
  /// MaxSize -> index into Groups, cleared after every analysis.
  std::unordered_map<uint32_t, size_t> GroupIndex;
  /// Lifetime merge of every consumed window slot plus how many
  /// instances it covers; what the selection store persists. Guarded by
  /// EvalMutex.
  WorkloadProfile Lifetime;
  uint64_t LifetimeInstances = 0; ///< Guarded by EvalMutex.
  /// This site's decision provenance ledger (DESIGN.md §14), resolved
  /// lazily under EvalMutex the first time an evaluation runs with the
  /// provenance registry enabled; null (and never touched) otherwise —
  /// the disabled path costs one relaxed atomic load per evaluation
  /// and allocates nothing.
  obs::SiteLedger *Ledger = nullptr;
  /// Decision scratch reused across rounds (the record is ~1.5 KB and
  /// would dominate the evaluation stack frame); allocated once with
  /// the ledger. Guarded by EvalMutex.
  std::unique_ptr<obs::DecisionRecord> PendingDecision;
  /// True between capturePendingDecision() and recordPendingDecision()
  /// for the current round. Guarded by EvalMutex.
  bool PendingCaptured = false;
  /// Consecutive kept decisions: convergence evidence in the ledger and
  /// the input of back-off. Updated by every analyzed round, ledger or
  /// not; reset by a switch or a capacity-hint move. Guarded by
  /// EvalMutex.
  uint32_t KeepStreak = 0;
  /// True while the current round is dormant; it opened with the
  /// assigned count at WindowSize, so it holds no claimed slot.
  /// DormantCalls counts the evaluate() calls and DormantCreatedAt is
  /// instancesCreated() when it opened. Guarded by EvalMutex.
  bool Dormant = false;
  uint32_t DormantCalls = 0;
  uint64_t DormantCreatedAt = 0;
  /// Set once in the constructor when the initial variant came from the
  /// selection store; never written afterwards.
  bool WarmStarted = false;
};

/// The typed half of a context for \p Facade (List<T>, Set<T> or
/// Map<K, V>): the create path and, on a sequential site, the spare ring
/// its instances recycle through (DESIGN.md §4.4). The ring keeps
/// spares of the current variant that own at most what a fresh instance
/// reserved at twice the bound's hint owns once it holds that many
/// elements: its reserved storage plus its unreservedBytes(), the nodes
/// or adaptive table a spare parks. The bound is measured again,
/// and the ring emptied, only on a switch or when the capacity hint
/// leaves [h/2, 2h] of the hint h it was measured at, so the measuring
/// instance is rare and a spare never owns more than about four times
/// the current hint's storage.
template <typename Facade>
class AllocationContext : public AllocationContextBase {
  using Traits = ContextTraits<Facade>;

public:
  AllocationContext(std::string Name, typename Traits::Variant Initial,
                    std::shared_ptr<const PerformanceModel> Model,
                    SelectionRule Rule, ContextOptions Options)
      : AllocationContextBase(std::move(Name), Traits::Kind,
                              static_cast<unsigned>(Initial),
                              std::move(Model), std::move(Rule), Options) {
    selectionMoved();
  }

protected:
  /// An instance of the current variant (see createInstance: monitoring
  /// sample, capacity hint, spare reuse, concurrent tier, tracing).
  Facade create() {
    return createInstance<Facade>(sequential() ? &Spares : nullptr);
  }

  void selectionMoved() override {
    if (!sequential())
      return;
    unsigned Index = currentVariantIndex();
    uint64_t Hint = capacityHint();
    if (Index == BoundVariant && Hint * 2 >= BoundHint &&
        Hint <= BoundHint * 2)
      return;
    auto Fresh = Traits::makeImpl(
        static_cast<typename Traits::Variant>(Index), adaptiveOverride());
    size_t Elements = std::max<size_t>(2 * Hint, 1);
    Fresh->reserve(Elements);
    Spares.retain(Index, Fresh->memoryFootprint() +
                             Fresh->unreservedBytes(Elements));
    BoundVariant = Index;
    BoundHint = Hint;
  }

  size_t spareBytes() const override {
    return sizeof(AllocationContext) - sizeof(AllocationContextBase) +
           Spares.bytes();
  }

private:
  bool sequential() const { return concurrencyMode() == Concurrency::None; }

  SpareRing<typename Traits::Impl> Spares;
  /// The variant and capacity hint the ring's byte bound was measured
  /// at (written under EvalMutex, or by the constructor).
  unsigned BoundVariant = UINT_MAX;
  uint64_t BoundHint = 0;
};

/// Allocation context for list sites.
template <typename T> class ListContext : public AllocationContext<List<T>> {
public:
  ListContext(std::string Name, ListVariant Initial,
              std::shared_ptr<const PerformanceModel> Model,
              SelectionRule Rule, ContextOptions Options = {})
      : AllocationContext<List<T>>(std::move(Name), Initial,
                                   std::move(Model), std::move(Rule),
                                   Options) {}

  /// Creates a list of the context's current variant.
  List<T> createList() { return this->create(); }
};

/// Allocation context for set sites.
template <typename T> class SetContext : public AllocationContext<Set<T>> {
public:
  SetContext(std::string Name, SetVariant Initial,
             std::shared_ptr<const PerformanceModel> Model,
             SelectionRule Rule, ContextOptions Options = {})
      : AllocationContext<Set<T>>(std::move(Name), Initial, std::move(Model),
                                  std::move(Rule), Options) {}

  /// Creates a set of the context's current variant.
  Set<T> createSet() { return this->create(); }
};

/// Allocation context for map sites.
template <typename K, typename V>
class MapContext : public AllocationContext<Map<K, V>> {
public:
  MapContext(std::string Name, MapVariant Initial,
             std::shared_ptr<const PerformanceModel> Model,
             SelectionRule Rule, ContextOptions Options = {})
      : AllocationContext<Map<K, V>>(std::move(Name), Initial,
                                     std::move(Model), std::move(Rule),
                                     Options) {}

  /// Creates a map of the context's current variant.
  Map<K, V> createMap() { return this->create(); }
};

/// Maps a collection facade type (List<T>, Set<T>, Map<K, V>) — or the
/// context type itself — to the facts that differ per kind: its context
/// type, abstraction, variant enum, adaptive variant, implementation
/// interface and factory, and the Fig. 4 create call. The one create
/// body (AllocationContextBase::createInstance), Switch::makeContext<>
/// and the app harness all read them from here; specialize it to plug
/// custom abstractions in.
template <typename T> struct ContextTraits<List<T>> {
  using Context = ListContext<T>;
  using Impl = ListImpl<T>;
  using Variant = ListVariant;
  static constexpr AbstractionKind Kind = AbstractionKind::List;
  static constexpr Variant Adaptive = ListVariant::AdaptiveList;
  static std::unique_ptr<ListImpl<T>>
  makeImpl(Variant V, const AdaptiveThresholds *Thresholds = nullptr) {
    return makeListImpl<T>(V, Thresholds);
  }
  static List<T> create(Context &Ctx) { return Ctx.createList(); }
};
template <typename T> struct ContextTraits<Set<T>> {
  using Context = SetContext<T>;
  using Impl = SetImpl<T>;
  using Variant = SetVariant;
  static constexpr AbstractionKind Kind = AbstractionKind::Set;
  static constexpr Variant Adaptive = SetVariant::AdaptiveSet;
  static std::unique_ptr<SetImpl<T>>
  makeImpl(Variant V, const AdaptiveThresholds *Thresholds = nullptr) {
    return makeSetImpl<T>(V, Thresholds);
  }
  static Set<T> create(Context &Ctx) { return Ctx.createSet(); }
};
template <typename K, typename V> struct ContextTraits<Map<K, V>> {
  using Context = MapContext<K, V>;
  using Impl = MapImpl<K, V>;
  using Variant = MapVariant;
  static constexpr AbstractionKind Kind = AbstractionKind::Map;
  static constexpr Variant Adaptive = MapVariant::AdaptiveMap;
  static std::unique_ptr<MapImpl<K, V>>
  makeImpl(Variant Var, const AdaptiveThresholds *Thresholds = nullptr) {
    return makeMapImpl<K, V>(Var, Thresholds);
  }
  static Map<K, V> create(Context &Ctx) { return Ctx.createMap(); }
};
// Context types name themselves, so makeContext<ListContext<T>> also
// works.
template <typename T>
struct ContextTraits<ListContext<T>> : ContextTraits<List<T>> {};
template <typename T>
struct ContextTraits<SetContext<T>> : ContextTraits<Set<T>> {};
template <typename K, typename V>
struct ContextTraits<MapContext<K, V>> : ContextTraits<Map<K, V>> {};

} // namespace cswitch

#endif // CSWITCH_CORE_ALLOCATIONCONTEXT_H

//===- AllocationContext.cpp - Adaptive allocation contexts --------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/AllocationContext.h"

#include "core/SwitchEngine.h"
#include "store/SelectionStore.h"
#include "support/EventLog.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

using namespace cswitch;

static_assert(NumCostDimensions == obs::ExplainNumDimensions,
              "the provenance ledger's dimension layout mirrors "
              "CostDimension; update obs::ExplainNumDimensions and "
              "explainDimensionName together with the enum");
static_assert(MaxReportedCriteria >= obs::ExplainMaxCriteria,
              "the ledger copies its criterion ratios from the decision");

namespace {

/// Saturating narrowing for the compact window-slot profiles.
uint32_t saturate32(uint64_t Value) {
  return Value > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(Value);
}

/// Bounded-wait helper for the analyzer: a claimer or finisher is
/// between its RoundState CAS and the matching slot-state store, which
/// is a handful of instructions away (or a descheduled thread).
void relaxSpin(unsigned &Spins) {
  if (++Spins < 64)
    return;
  std::this_thread::yield();
}

} // namespace

AllocationContextBase::AllocationContextBase(
    std::string Name, AbstractionKind Kind, unsigned InitialVariantIndex,
    std::shared_ptr<const PerformanceModel> Model, SelectionRule Rule,
    ContextOptions Options)
    : Name(std::move(Name)), Kind(Kind), Model(std::move(Model)),
      Rule(std::move(Rule)), Options(Options),
      Current(InitialVariantIndex) {
  assert(this->Model && "context requires a performance model");
  assert(InitialVariantIndex < numVariantsOf(Kind) &&
         "initial variant out of range");
  assert(this->Options.WindowSize > 0 && "window size must be positive");
  assert(this->Options.WindowSize < UINT32_MAX &&
         "window size must fit the packed assigned counter");
  // Interned in the global registry: same-named sites share one profile
  // across context lifetimes, and the histograms stay out of this
  // context's memory footprint.
  Prof = obs::ProfilingRegistry::global().profile(this->Name);
  // Warm start runs before the window buffers are sized: a hit both
  // seeds Current and shrinks Options.WindowSize.
  applyWarmStart();
  // Concurrent tier: the initial variant (requested or warm-started,
  // possibly from a store written by a sequential run) is coerced into
  // the tier, and the contention sketch is allocated.
  Concurrency Mode = this->Options.ConcurrencyMode;
  if (Mode != Concurrency::None) {
    uint32_t TierMask = concurrencyCandidateMask(Kind, Mode);
    if (!((TierMask >> currentVariantIndex()) & 1u))
      Current.store(concurrentInitialVariant(Kind, Mode),
                    std::memory_order_relaxed);
    if (AdaptiveConfig::global().contention().Enabled)
      Sketch = std::make_unique<ContentionSketch>();
  }
  CandidateMask = concurrencyCandidateMask(Kind, Mode) |
                  (1u << currentVariantIndex());
  Slots = std::make_unique<WindowSlot[]>(2 * this->Options.WindowSize);
  FinishedState[0].Value.store(0, std::memory_order_relaxed);
  FinishedState[1].Value.store(uint64_t(1) << 32,
                              std::memory_order_relaxed);
  for (const Criterion &C : this->Rule.Criteria)
    UsedDimensions[static_cast<size_t>(C.Dimension)] = true;
  // The model is immutable for the lifetime of the context: its
  // coverage is read once here.
  CoverageMask = this->Model->coverageMask(Kind);
  if (this->Options.LogEvents) {
    // Intern once here so every later record() on the evaluation path
    // is allocation-free: events carry these ids, never strings.
    EventLog &Log = EventLog::global();
    size_t NumVariants = numVariantsOf(Kind);
    LogNameId = Log.intern(this->Name);
    VariantNameIds.reserve(NumVariants);
    for (unsigned V = 0; V != NumVariants; ++V)
      VariantNameIds.push_back(Log.intern(VariantId{Kind, V}.name()));
    // currentVariantIndex(), not InitialVariantIndex: a warm start may
    // already have seeded a different variant.
    Log.record(EventKind::ContextCreated, LogNameId,
               VariantNameIds[currentVariantIndex()]);
  }
  if (this->Options.Recorder)
    RecorderSite = this->Options.Recorder->registerSite(
        this->Name, Kind, currentVariantIndex());
}

AllocationContextBase::~AllocationContextBase() = default;

void AllocationContextBase::applyWarmStart() {
  if (!Options.WarmStart)
    return;
  SelectionStore *Store = Options.Store;
  std::shared_ptr<SelectionStore> EngineStore;
  if (!Store) {
    EngineStore = SwitchEngine::global().store();
    Store = EngineStore.get();
  }
  if (!Store)
    return;
  std::optional<StoreSite> Hit = Store->lookup(Name, Rule.Name, Kind);
  if (!Hit || Hit->Instances == 0)
    return;
  // The store decoder validated Decision against the variant count, so
  // the seed is always instantiable.
  Current.store(Hit->Decision, std::memory_order_relaxed);
  // The stored variant is almost certainly right, so a warm context
  // only verifies it, over a quarter of the window.
  constexpr double WarmWindowFactor = 0.25;
  Options.WindowSize = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(
             WarmWindowFactor * static_cast<double>(Options.WindowSize))));
  WarmStarted = true;
  Store->noteWarmStart();
  if (Options.LogEvents)
    EventLog::global().record(EventKind::WarmStart, Name,
                              VariantId{Kind, Hit->Decision}.name());
  if (obs::ProvenanceRegistry::enabled()) {
    // The warm start skipped the whole pre-convergence analysis: the
    // ledger records the seeded variant so the skip is explainable.
    resolveLedger();
    obs::DecisionRecord Record;
    Record.TimestampNanos = obs::nowNanos();
    Record.Outcome = obs::DecisionOutcome::WarmStartSkipped;
    Record.CurrentVariant = static_cast<int16_t>(Hit->Decision);
    Record.ChosenVariant = static_cast<int16_t>(Hit->Decision);
    Ledger->record(Record);
  }
}

void AllocationContextBase::resolveLedger() {
  if (Ledger)
    return;
  size_t NumVariants = numVariantsOf(Kind);
  std::vector<std::string> Names;
  Names.reserve(NumVariants);
  for (unsigned V = 0; V != NumVariants; ++V)
    Names.push_back(VariantId{Kind, V}.name());
  Ledger = obs::ProvenanceRegistry::global().site(
      Name, abstractionKindName(Kind), Rule.Name, std::move(Names));
  PendingDecision = std::make_unique<obs::DecisionRecord>();
}

WorkloadProfile
AllocationContextBase::aggregateProfile(uint64_t &Instances) const {
  std::lock_guard<std::mutex> Lock(EvalMutex);
  Instances = LifetimeInstances;
  return Lifetime;
}

size_t AllocationContextBase::acquireMonitorSlot() {
  // Continuous profiling is sampled 1-in-64 per thread: the unsampled
  // common case adds a single thread_local decrement to this path.
  const bool Sampled = obs::shouldSampleRecord();
  const uint64_t Start = Sampled ? obs::nowNanos() : 0;

  Hot.Created.fetch_add(1, std::memory_order_relaxed);
  size_t Out = NoSlot;
  uint64_t State = RoundState.load(std::memory_order_acquire);
  for (;;) {
    uint32_t Assigned = static_cast<uint32_t>(State);
    // Lock-free fast path: the window of this round is already full —
    // the common steady-state case is a single atomic load.
    if (Assigned >= Options.WindowSize)
      break;
    // Claim slot `Assigned` of the current round. The CAS covers the
    // round bits too: if evaluate() rotates concurrently, the claim
    // retries against the new round instead of landing in a retired
    // window.
    if (RoundState.compare_exchange_weak(State, State + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      uint32_t Round = static_cast<uint32_t>(State >> 32);
      uint32_t Index = static_cast<uint32_t>(State);
      // The claim store publishes slot ownership to the finisher and the
      // analyzer (which spins briefly if it wins the race to this line).
      bufferOf(Round)[Index].State.store(
          slotState(Round, SlotStatus::Claimed), std::memory_order_release);
      Hot.Monitored.fetch_add(1, std::memory_order_relaxed);
      Out = (static_cast<size_t>(Round) << 32) | Index;
      break;
    }
  }

  if (Sampled)
    Prof->Record.record(obs::nowNanos() - Start, obs::RecordSampleEvery);
  return Out;
}

void AllocationContextBase::onInstanceFinished(
    size_t Slot, const WorkloadProfile &Profile) {
  // Publication is the other half of the monitoring fast path; it
  // shares the Record histogram (and the 1-in-64 sampling) with slot
  // acquisition.
  const bool Sampled = obs::shouldSampleRecord();
  const uint64_t Start = Sampled ? obs::nowNanos() : 0;

  auto Round = static_cast<uint32_t>(Slot >> 32);
  auto Index = static_cast<uint32_t>(Slot & 0xffffffffu);
  assert(Index < Options.WindowSize && "slot out of range");
  WindowSlot &Entry = bufferOf(Round)[Index];

  // Acquire exclusive write access to the slot. Failure means the round
  // was retired and the analyzer closed the slot (or a later round owns
  // it): the profile belongs to an already-analyzed (or abandoned)
  // round and is discarded.
  uint64_t Expected = slotState(Round, SlotStatus::Claimed);
  if (!Entry.State.compare_exchange_strong(
          Expected, slotState(Round, SlotStatus::Writing),
          std::memory_order_acq_rel, std::memory_order_relaxed)) {
    Hot.Discarded.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (size_t I = 0; I != NumOperationKinds; ++I)
      Entry.Counts[I] = saturate32(Profile.Counts[I]);
    Entry.MaxSize = saturate32(Profile.MaxSize);
    // Release-publish: the analyzer's acquire load of Finished orders the
    // profile write before its reads.
    Entry.State.store(slotState(Round, SlotStatus::Finished),
                      std::memory_order_release);
    Hot.Finished.fetch_add(1, std::memory_order_relaxed);

    // Count the publication toward this round's finished-ratio gate. The
    // round tag in the counter word makes a stale increment (the round
    // rotated after the publication above) fail and drop out harmlessly.
    std::atomic<uint64_t> &Counter = FinishedState[Round & 1].Value;
    uint64_t Count = Counter.load(std::memory_order_relaxed);
    while (static_cast<uint32_t>(Count >> 32) == Round &&
           !Counter.compare_exchange_weak(Count, Count + 1,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
  }

  if (Sampled)
    Prof->Record.record(obs::nowNanos() - Start, obs::RecordSampleEvery);
}

std::optional<unsigned> AllocationContextBase::analyzeRound(uint32_t Round,
                                                            size_t Assigned) {
  // Drain the retired buffer: consume published profiles, lock stale
  // stragglers out of unfinished slots, and merge the profiles of
  // instances that peaked at the same maximum size. Sizes repeat
  // heavily in practice (the paper's workloads allocate thousands of
  // same-shaped collections per site), so the merge is what makes cost
  // evaluation O(groups) instead of O(instances).
  Groups.clear();
  GroupIndex.clear();
  WindowSlot *Buffer = bufferOf(Round);
  size_t Consumed = 0;
  for (size_t I = 0; I != Assigned; ++I) {
    WindowSlot &Entry = Buffer[I];
    unsigned Spins = 0;
    bool Consume = false;
    for (;;) {
      uint64_t State = Entry.State.load(std::memory_order_acquire);
      if (State == slotState(Round, SlotStatus::Finished)) {
        Consume = true;
        break;
      }
      if (State == slotState(Round, SlotStatus::Writing)) {
        // A finisher is mid-publication; it completes in a bounded
        // number of instructions.
        relaxSpin(Spins);
        continue;
      }
      if (State == slotState(Round, SlotStatus::Claimed)) {
        // Still alive: close the slot so a late publication is
        // discarded instead of racing with the next reuse.
        if (Entry.State.compare_exchange_strong(
                State, slotState(Round, SlotStatus::Closed),
                std::memory_order_acq_rel, std::memory_order_relaxed))
          break;
        continue;
      }
      if (State == slotState(Round, SlotStatus::Closed))
        break;
      // The slot was claimed via the RoundState CAS but the claim store
      // has not propagated yet; it is at most a context switch away.
      relaxSpin(Spins);
    }
    if (!Consume)
      continue;
    ++Consumed;
    auto [It, Inserted] = GroupIndex.try_emplace(Entry.MaxSize, Groups.size());
    if (Inserted) {
      Groups.emplace_back();
      Groups.back().MaxSize = Entry.MaxSize;
    }
    SizeGroup &Group = Groups[It->second];
    ++Group.Instances;
    for (size_t Op = 0; Op != NumOperationKinds; ++Op)
      Group.Counts[Op] += Entry.Counts[Op];
  }
  GroupIndex.clear();
  // Fold this round into the lifetime aggregate the selection store
  // persists (EvalMutex is held by evaluate()).
  for (const SizeGroup &G : Groups) {
    for (size_t Op = 0; Op != NumOperationKinds; ++Op)
      Lifetime.Counts[Op] += G.Counts[Op];
    Lifetime.recordSize(G.MaxSize);
  }
  LifetimeInstances += Consumed;
  if (Groups.empty())
    return std::nullopt;

  // Deterministic accumulation order regardless of instance finish
  // order (floating-point sums are order-sensitive).
  std::sort(Groups.begin(), Groups.end(),
            [](const SizeGroup &A, const SizeGroup &B) {
              return A.MaxSize < B.MaxSize;
            });

  // Capacity hint: the lower median of the consumed instances' maximum
  // sizes; growth hint: their upper decile (DESIGN.md §4.2). Instances
  // at or below the first are reserved for, those up to the second grow
  // once, to it, and only the top decile doubles on from there.
  auto SizeAtRank = [this](size_t Rank) {
    for (const SizeGroup &G : Groups) {
      if (G.Instances >= Rank)
        return G.MaxSize;
      Rank -= G.Instances;
    }
    return Groups.back().MaxSize;
  };
  CapacityHint.store(SizeAtRank((Consumed + 1) / 2),
                     std::memory_order_relaxed);
  GrowthHint.store(SizeAtRank((Consumed * 9 + 9) / 10),
                   std::memory_order_relaxed);

  // The rule's dimensions, or all of them when the ledger records the
  // full breakdown: each dimension has its own accumulator, so the
  // rule's totals and the choice are the same either way.
  DecisionInputs In;
  In.Kind = Kind;
  In.Current = Current.load(std::memory_order_relaxed);
  In.CandidateMask = CoverageMask & CandidateMask;
  In.AdaptiveThreshold = adaptiveThresholdIn(
      Options.AdaptiveOverride ? *Options.AdaptiveOverride
                               : AdaptiveConfig::global().thresholds(),
      Kind);
  In.WideRangeFactor = Options.WideRangeFactor;
  // Only a concurrent context's sketch ever moves the estimate off 0.
  In.Threads = ContendedThreads.load(std::memory_order_relaxed);
  if (Ledger)
    In.Dims.fill(true);
  else
    In.Dims = UsedDimensions;
  SiteDecision Decision;
  decideSite(Groups, *Model, Rule, In, Decision);
  if (Ledger)
    capturePendingDecision(Round, In, Decision);
  return Decision.Choice;
}

void AllocationContextBase::capturePendingDecision(
    uint32_t Round, const DecisionInputs &In, const SiteDecision &Decision) {
  obs::DecisionRecord &R = *PendingDecision;
  R = obs::DecisionRecord();
  R.TimestampNanos = obs::nowNanos();
  R.Round = Round;
  R.CurrentVariant = static_cast<int16_t>(In.Current);
  R.ChosenVariant =
      Decision.Choice ? static_cast<int16_t>(*Decision.Choice) : int16_t(-1);
  size_t NumCandidates =
      std::min<size_t>(Decision.Candidates.size(), obs::ExplainMaxCandidates);
  R.NumCandidates = static_cast<uint8_t>(NumCandidates);
  size_t NumCriteria =
      std::min<size_t>(Rule.Criteria.size(), obs::ExplainMaxCriteria);
  R.NumCriteria = static_cast<uint8_t>(NumCriteria);
  for (size_t C = 0; C != NumCriteria; ++C) {
    R.Criteria[C].Dimension =
        static_cast<uint8_t>(Rule.Criteria[C].Dimension);
    R.Criteria[C].Threshold = Rule.Criteria[C].Threshold;
  }
  R.ContendedThreads = In.Threads;
  R.ContentionFolded = Decision.ContentionFolded;
  R.AdaptiveIndex = static_cast<int16_t>(adaptiveVariantOf(Kind));
  R.AdaptiveThreshold = static_cast<double>(In.AdaptiveThreshold);
  R.WideRangeFactor = In.WideRangeFactor;
  R.MinMaxSize = static_cast<double>(Groups.front().MaxSize);
  R.MaxMaxSize = static_cast<double>(Groups.back().MaxSize);
  R.AdaptiveStraddles = Decision.Straddles;
  R.AdaptiveWide = Decision.Wide;
  R.Margin = Decision.Margin;
  for (size_t V = 0; V != NumCandidates; ++V) {
    const VariantCosts &From = Decision.Candidates[V];
    obs::CandidateExplanation &Cand = R.Candidates[V];
    Cand.Covered = (CoverageMask >> V) & 1u;
    Cand.Eligible = From.Eligible;
    Cand.Qualified = From.Qualified;
    Cand.Ratio.fill(-1.0);
    // Variants outside the candidate mask were never priced.
    if (!((In.CandidateMask >> V) & 1u))
      continue;
    Cand.Total = From.Total;
    Cand.PreFold = From.PreFold;
    std::copy_n(From.Ratio.begin(), NumCriteria, Cand.Ratio.begin());
  }
  PendingCaptured = true;
}

void AllocationContextBase::recordPendingDecision(bool Switched) {
  if (!Ledger || !PendingCaptured)
    return;
  PendingCaptured = false;
  obs::DecisionRecord &R = *PendingDecision;
  if (Switched)
    R.Outcome = obs::DecisionOutcome::Switched;
  else
    R.Outcome = KeepStreak >= ConvergedKeepStreak
                    ? obs::DecisionOutcome::Converged
                    : obs::DecisionOutcome::Kept;
  R.ConsecutiveKeeps = KeepStreak;
  Ledger->record(R);
}

bool AllocationContextBase::evaluate() {
  std::lock_guard<std::mutex> Lock(EvalMutex);
  uint64_t State = RoundState.load(std::memory_order_acquire);
  auto Round = static_cast<uint32_t>(State >> 32);
  if (Dormant) {
    // Back-off: the round ends once it has lasted 2^k - 1 calls (the
    // monitoring rate) and 2^k - 1 windows of creations (so a
    // tight-loop evaluator cannot skip it). Nothing was claimed in it,
    // so it reopens live in place with the assigned count at 0.
    uint64_t Span = (uint64_t(1) << backoffLevelLocked()) - 1;
    if (++DormantCalls >= Span &&
        instancesCreated() - DormantCreatedAt >= Span * Options.WindowSize) {
      Dormant = false;
      RoundState.store(static_cast<uint64_t>(Round) << 32,
                       std::memory_order_release);
    }
    return false;
  }
  if (static_cast<uint32_t>(State) == 0)
    return false;
  auto Needed = static_cast<size_t>(
      std::ceil(Options.FinishedRatio *
                static_cast<double>(Options.WindowSize)));
  uint64_t FinishedWord =
      FinishedState[Round & 1].Value.load(std::memory_order_acquire);
  size_t FinishedInRound =
      static_cast<uint32_t>(FinishedWord >> 32) == Round
          ? static_cast<uint32_t>(FinishedWord)
          : 0;
  if (FinishedInRound < std::max<size_t>(Needed, 1))
    return false;

  // Refresh the contention estimate once per analysis round: EWMA over
  // the sketch's linear-counting estimate, gated on a minimum operation
  // volume so a nearly idle round cannot collapse the signal.
  if (Sketch) {
    ContentionPolicy Policy = AdaptiveConfig::global().contention();
    if (Sketch->operations() >= Policy.MinOps) {
      double Estimate = Sketch->estimateThreads();
      double Previous = ContendedThreads.load(std::memory_order_relaxed);
      double Alpha = std::clamp(Policy.Smoothing, 0.0, 1.0);
      double Next = Previous == 0.0
                        ? Estimate
                        : Previous + Alpha * (Estimate - Previous);
      ContendedThreads.store(Next, std::memory_order_relaxed);
      Sketch->reset();
    }
  }

  // Resolve the provenance ledger once a round is actually going to be
  // analyzed; when the ledger is disabled (the default) this is a
  // single relaxed atomic load and nothing below touches it.
  if (obs::ProvenanceRegistry::enabled())
    resolveLedger();

  // Analysis rounds are rare (paced by the monitoring rate), so every
  // one is timed — no sampling on this path.
  const bool Profiled = obs::ProfilingRegistry::enabled();
  const uint64_t AnalysisStart = Profiled ? obs::nowNanos() : 0;

  // Rotate: prime the inactive buffer's publication counter for the
  // next round, then swap rounds with one CAS. Creation immediately
  // continues into the fresh buffer while the retired one is analyzed
  // below, off the hot path. (Stale-round increments on the counter
  // fail their round-tag check, so the plain store cannot be corrupted.)
  // A converged site opens the next round dormant: its assigned count
  // starts at WindowSize, so creation takes the full-window fast path
  // and no slot of it is ever claimed.
  uint32_t NextRound = Round + 1;
  FinishedState[NextRound & 1].Value.store(
      static_cast<uint64_t>(NextRound) << 32, std::memory_order_relaxed);
  const bool OpenDormant = backoffLevelLocked() > 0;
  uint64_t Rotated = static_cast<uint64_t>(NextRound) << 32;
  if (OpenDormant)
    Rotated |= Options.WindowSize;
  while (!RoundState.compare_exchange_weak(State, Rotated,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    // Only the assigned count can move under us (rotation is serialized
    // by EvalMutex); retry with the refreshed claim count.
  }
  size_t Assigned = static_cast<uint32_t>(State);
  const uint64_t CreatedAtRotation = OpenDormant ? instancesCreated() : 0;
  const uint32_t PreviousHint = CapacityHint.load(std::memory_order_relaxed);

  std::optional<unsigned> Choice = analyzeRound(Round, Assigned);
  Evaluations.fetch_add(1, std::memory_order_relaxed);
  if (Options.LogEvents) {
    EventLog &Log = EventLog::global();
    Log.record(EventKind::Evaluation, LogNameId,
               VariantNameIds[currentVariantIndex()]);
    // §3.1: "after switching ... a fraction of the instances is
    // monitored to allow a continuous adaptation process".
    Log.record(EventKind::MonitoringRound, LogNameId);
  }
  if (Profiled)
    Prof->Evaluate.record(obs::nowNanos() - AnalysisStart);

  unsigned Cur = Current.load(std::memory_order_relaxed);
  bool Switched = Choice && *Choice != Cur;
  if (Switched) {
    const uint64_t SwitchStart = Profiled ? obs::nowNanos() : 0;
    Current.store(*Choice, std::memory_order_relaxed);
    Switches.fetch_add(1, std::memory_order_relaxed);
    if (Options.LogEvents) {
      // Transitions are rare (bounded by the variant pool in steady
      // state); building + interning the detail string here keeps the
      // common no-switch evaluation completely allocation-free.
      std::string Detail = VariantId{Kind, Cur}.name() + " -> " +
                           VariantId{Kind, *Choice}.name();
      EventLog &Log = EventLog::global();
      Log.record(EventKind::Transition, LogNameId, Log.intern(Detail));
    }
    if (Profiled)
      Prof->Switch.record(obs::nowNanos() - SwitchStart);
  }

  // One keep streak, ledger or not. A switch or a capacity hint that
  // left [h/2, 2h] of the previous round's hint h re-arms back-off; if
  // the round just opened dormant, it reopens live (nothing in it can
  // have been claimed).
  uint32_t Hint = CapacityHint.load(std::memory_order_relaxed);
  bool HintMoved = PreviousHint != 0 && (uint64_t(Hint) * 2 < PreviousHint ||
                                         Hint > uint64_t(PreviousHint) * 2);
  KeepStreak = Switched || HintMoved ? 0 : KeepStreak + 1;
  if (Switched || Hint != PreviousHint)
    selectionMoved();
  if (OpenDormant) {
    if (backoffLevelLocked() == 0) {
      RoundState.store(static_cast<uint64_t>(NextRound) << 32,
                       std::memory_order_release);
    } else {
      Dormant = true;
      DormantCalls = 0;
      DormantCreatedAt = CreatedAtRotation;
      RoundsSkipped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Publish the captured explanation (outcome now known); no-op when
  // the ledger is off or the round produced no analyzable groups.
  recordPendingDecision(Switched);
  return Switched;
}

size_t AllocationContextBase::memoryFootprint() const {
  // Groups is analysis scratch that evaluate() may be growing on the
  // background thread; its capacity is only stable under EvalMutex.
  std::lock_guard<std::mutex> Lock(EvalMutex);
  return sizeof(*this) + 2 * Options.WindowSize * sizeof(WindowSlot) +
         Name.capacity() +
         Groups.capacity() * sizeof(SizeGroup) +
         VariantNameIds.capacity() * sizeof(uint32_t) + spareBytes();
}

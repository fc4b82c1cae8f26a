//===- Replayer.h - Deterministic trace re-execution ------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic re-execution of recorded operation traces. The Replayer
/// turns a trace into a live workload again: every recorded operation is
/// re-executed against real collection instances — either a pinned
/// variant per abstraction (including the adaptive collections) or full
/// adaptive allocation contexts registered with a private SwitchEngine —
/// while Timer/MemoryTracker measure what the trace costs under that
/// regime. This is the trace-driven benchmark generation idea of
/// MapReplay (Schiavio et al.) applied to the CollectionSwitch decision
/// pipeline: one recorded run becomes arbitrarily many reproducible
/// what-if experiments.
///
/// Determinism (DESIGN.md §7): operand values are re-synthesized from
/// the recorded key/index classes with a per-instance SplitMix64 seeded
/// by mix(Seed, Site, Instance), so a replay is a pure function of
/// (trace bytes, options). With Threads == 1 two replays of the same
/// trace produce byte-identical decision logs and identical final
/// variants. With Threads > 1, sites are partitioned across threads;
/// each site's log is still deterministic (contexts are per-site) and
/// logs are concatenated in site order, so the decision log is invariant
/// in the thread count too — only the measured wall-clock changes.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_REPLAY_REPLAYER_H
#define CSWITCH_REPLAY_REPLAYER_H

#include "core/AllocationContext.h"
#include "core/OfflineAdvisor.h"
#include "core/SelectionRule.h"
#include "replay/TraceFormat.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cswitch {

/// How the Replayer instantiates collections.
enum class ReplayMode {
  Fixed,  ///< Pinned variant per abstraction (no adaptation).
  Engine, ///< Adaptive allocation contexts (the full decision pipeline).
};

/// Configuration of one replay run.
struct ReplayOptions {
  ReplayMode Mode = ReplayMode::Engine;
  /// Root seed of the deterministic operand synthesis.
  uint64_t Seed = 0x1905;
  /// Worker threads (sites are partitioned round-robin). 1 = fully
  /// deterministic measurement order.
  unsigned Threads = 1;
  /// Engine mode: evaluate a site's context after every N executed ops
  /// of that site (the deterministic stand-in for the paper's 50 ms
  /// monitoring rate), plus once at end of stream.
  uint64_t EvalEveryOps = 256;
  /// Fixed mode: variant index override per abstraction; sites of an
  /// abstraction without an override replay on their declared variant.
  std::optional<unsigned> FixedList;
  std::optional<unsigned> FixedSet;
  std::optional<unsigned> FixedMap;
  /// Engine mode: context knobs (window size, finished ratio, ...).
  ContextOptions Context;
  /// Engine mode: the selection rule contexts decide by.
  SelectionRule Rule = SelectionRule::timeRule();
  /// Engine mode: the performance model contexts predict with
  /// (required; Fixed mode ignores it).
  std::shared_ptr<const PerformanceModel> Model;
};

/// Per-site outcome of a replay.
struct SiteReplayResult {
  std::string Name;
  AbstractionKind Kind = AbstractionKind::List;
  unsigned InitialVariantIndex = 0;
  unsigned FinalVariantIndex = 0;
  uint64_t OpsExecuted = 0;
  uint64_t Evaluations = 0;
  uint64_t Switches = 0;
  /// Ops whose replayed collection size diverged from the recorded
  /// size-at-op — the fidelity check of the operand re-synthesis (should
  /// be 0 for a loss-free trace).
  uint64_t SizeMismatches = 0;
  /// Model-predicted time/alloc cost of the replay *trajectory*: every
  /// replayed instance costed on the variant it was actually created
  /// with, over the workload it actually executed. Unlike a final-variant
  /// prediction this rewards converging early — instances created before
  /// the context switched still pay the pre-switch variant's cost — so
  /// it is the deterministic fitness signal of the offline tuner.
  /// Computed only when ReplayOptions::Model is set; 0 otherwise.
  double TrajectoryTime = 0.0;
  double TrajectoryAlloc = 0.0;
};

/// Outcome of one replay run.
struct ReplayResult {
  std::vector<SiteReplayResult> Sites;
  uint64_t OpsExecuted = 0;
  uint64_t InstancesReplayed = 0;
  uint64_t SizeMismatches = 0;
  uint64_t Evaluations = 0;
  uint64_t Switches = 0;
  /// Measured cost of re-executing the trace.
  uint64_t ElapsedNanos = 0;
  uint64_t AllocatedBytes = 0;
  /// Trajectory cost summed over sites (see SiteReplayResult); the
  /// deterministic counterpart of the measured costs above.
  double TrajectoryTime = 0.0;
  double TrajectoryAlloc = 0.0;
  /// Per-site decision log (engine mode), concatenated in site order;
  /// byte-identical across replays of the same (trace, options).
  std::string DecisionLog;
};

/// Re-executes an operation trace. One Replayer instance is reusable:
/// every run() builds fresh collections/contexts from the immutable
/// trace, so repeated runs measure repeated executions of the same
/// workload.
class Replayer {
public:
  Replayer(OpTrace Trace, ReplayOptions Options);

  /// Replays the whole trace once.
  ReplayResult run();

  /// The trace being replayed.
  const OpTrace &trace() const { return Trace; }

  /// The options replays run with.
  const ReplayOptions &options() const { return Options; }

private:
  OpTrace Trace;
  ReplayOptions Options;
};

/// Replays every trace of \p Corpus under \p Options, one result per
/// trace in corpus order. The one corpus-replay loop behind the tuner's
/// fitness, the policy simulator and the tuning acceptance gate.
std::vector<ReplayResult> replayCorpus(const std::vector<OpTrace> &Corpus,
                                       const ReplayOptions &Options);

/// Aggregates the per-site workload profiles a trace implies (op counts
/// bucketed by OperationKind, max size per instance merged per site).
/// This is how the offline pipeline turns an operation trace into the
/// aggregate form the OfflineAdvisor consumes — and what the
/// PolicySimulator feeds the cost model for predicted costs.
std::vector<SiteProfile> aggregateTrace(const OpTrace &Trace);

} // namespace cswitch

#endif // CSWITCH_REPLAY_REPLAYER_H

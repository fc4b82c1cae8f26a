//===- PolicySimulator.h - Offline what-if policy sweeps --------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline what-if simulator: replays a corpus of recorded operation
/// traces under a set of candidate selection policies and ranks them by
/// measured cost. This answers the question the live framework cannot —
/// "what would this workload have cost under rule R / window W /
/// adaptive thresholds T?" — without re-running the application
/// (paper §6 positions exactly this as the advantage of trace-based
/// approaches like Brainy; here the traces come from our own recorder,
/// so the sweep evaluates the real decision pipeline, not a model of
/// it).
///
/// Each candidate is replayed in engine mode (full allocation contexts,
/// deterministic evaluation cadence) over every trace in the corpus.
/// Besides the measured wall-clock/allocation costs, the simulator
/// computes the model-predicted cost of each policy's final variant
/// choices over the trace's aggregated workload profiles, so reports
/// show predicted-vs-replayed side by side.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_REPLAY_POLICYSIMULATOR_H
#define CSWITCH_REPLAY_POLICYSIMULATOR_H

#include "replay/Replayer.h"

#include <memory>
#include <string>
#include <vector>

namespace cswitch {

/// One selection policy to evaluate: a rule plus the context knobs it
/// runs with. Adaptive thresholds go in Context.AdaptiveOverride, which
/// applies per context and never touches the process-global ones.
struct PolicyCandidate {
  std::string Name;
  SelectionRule Rule = SelectionRule::timeRule();
  ContextOptions Context;
  /// Evaluation cadence handed to the Replayer.
  uint64_t EvalEveryOps = 256;
};

/// Outcome of one policy over the whole corpus.
struct PolicyOutcome {
  std::string Name;
  uint64_t OpsExecuted = 0;
  uint64_t InstancesReplayed = 0;
  uint64_t Evaluations = 0;
  uint64_t Switches = 0;
  uint64_t SizeMismatches = 0;
  /// Measured replay cost, summed over the corpus.
  uint64_t ElapsedNanos = 0;
  uint64_t AllocatedBytes = 0;
  /// Model-predicted time/alloc cost of the policy's final variant
  /// choices over the corpus's aggregated profiles.
  double PredictedTime = 0.0;
  double PredictedAlloc = 0.0;
  /// Model-predicted cost of the replay trajectory (every instance on
  /// the variant it was created with; see
  /// SiteReplayResult::TrajectoryTime) — deterministic, and sensitive to
  /// *when* a policy converges, not just where.
  double TrajectoryTime = 0.0;
  double TrajectoryAlloc = 0.0;
  /// site name -> final variant name, across the corpus (trace index
  /// prefixes the site name when the corpus has several traces).
  std::vector<std::pair<std::string, std::string>> FinalVariants;
};

/// Ranked what-if report.
struct SimulationReport {
  /// Outcomes sorted by measured elapsed time, best first.
  std::vector<PolicyOutcome> Ranked;
  /// Name of the fastest policy (empty if nothing ran).
  std::string Best;

  /// Renders the ranked table as human-readable text.
  std::string render() const;

  /// Renders the full ranked report as JSON (schema
  /// "cswitch-simulate-v2") for programmatic consumers — CI asserts and
  /// `cswitch_replay simulate --json`. Includes per-policy
  /// counters, predicted and trajectory costs, and final variant
  /// choices.
  std::string toJson() const;
};

/// Sweeps selection policies over a corpus of recorded traces.
class PolicySimulator {
public:
  explicit PolicySimulator(std::shared_ptr<const PerformanceModel> Model);

  /// Adds a recorded trace to the corpus.
  void addTrace(OpTrace Trace);

  /// Adds one candidate policy.
  void addPolicy(PolicyCandidate Policy);

  /// Adds the standard sweep: the paper's Table 4 rules (Rtime, Ralloc,
  /// Renergy), a static baseline (impossibleRule — full monitoring, no
  /// switching, the §5.3 overhead configuration), Rtime threshold
  /// variants (0.7 / 0.9), window-size variants (50 / 200), and an
  /// adaptive-threshold variant (paper §3.2 Table 2 halved).
  void addDefaultPolicies();

  /// Replays every policy over the corpus. \p Seed and \p Threads are
  /// forwarded to the Replayer (determinism: same corpus + same
  /// policies + same seed => same decision logs and variant choices).
  SimulationReport run(uint64_t Seed = 0x1905, unsigned Threads = 1);

  size_t traceCount() const { return Corpus.size(); }
  size_t policyCount() const { return Policies.size(); }

private:
  std::shared_ptr<const PerformanceModel> Model;
  std::vector<OpTrace> Corpus;
  std::vector<PolicyCandidate> Policies;
};

} // namespace cswitch

#endif // CSWITCH_REPLAY_POLICYSIMULATOR_H

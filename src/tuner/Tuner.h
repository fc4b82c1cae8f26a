//===- Tuner.h - Offline coordinate-search parameter tuner ------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline autotuner (DESIGN.md §13): a deterministic coordinate
/// search over the typed ParameterSpace, with the deterministic Replayer
/// as its fitness function (fitness through trace replay as in
/// MapReplay, Schiavio et al.).
///
/// Fitness of a parameter set is the *trajectory cost* of replaying the
/// trace corpus under it: every replayed instance is costed (by the
/// performance model) on the variant it was actually created with, so
/// a configuration that converges to the right variant in one
/// monitoring round beats one that takes five. Time and alloc costs are
/// normalized against the paper defaults per trace and scalarized with
/// user weights, plus a penalty on the worst trace's time regression.
///
/// The search starts at the paper defaults and visits the parameters in
/// table order. For each it scores a fixed grid (searchGrid) and moves
/// only on a strict improvement, so ties keep the incumbent and a
/// parameter the corpus exerts no pressure on stays at its default. It
/// sweeps until a whole sweep moves nothing, at most MaxSweeps times.
/// There is no randomness: the result is a pure function of (corpus
/// bytes, TunerOptions). Basios et al. ("Darwinian Data Structure
/// Selection") argue a genetic search pays off only where the space is
/// rugged; this one is not (EXPERIMENTS.md "Tuned vs. default").
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_TUNER_TUNER_H
#define CSWITCH_TUNER_TUNER_H

#include "replay/Replayer.h"
#include "tuner/TuningArtifact.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cswitch {
namespace tuner {

/// Upper bound on coordinate sweeps; a search that still moves in its
/// last sweep stops there.
inline constexpr unsigned MaxSweeps = 8;

/// The values the search scores for \p Info: 9 points across its bounds
/// (log-spaced for integer parameters whose Max/Min >= 64, linear
/// otherwise) plus the paper default, ascending, without duplicates.
std::vector<double> searchGrid(const ParamInfo &Info);

/// Fitness configuration.
struct TunerOptions {
  /// Scalarization weights of the multi-objective fitness.
  double TimeWeight = 1.0;
  double AllocWeight = 0.25;
  /// Penalty per variant switch per replayed instance (0 = off):
  /// discourages configurations that win by thrashing.
  double SwitchPenalty = 0.0;
  /// Weight of the worst-trace time regression (ratios above 1 vs the
  /// paper defaults): guards the "no scenario regresses" acceptance
  /// criterion during the search itself.
  double RegressionPenalty = 2.0;
  /// Seed of the operand synthesis in the fitness replays.
  uint64_t ReplaySeed = 0x1905;
};

/// Outcome of one search.
struct TunerResult {
  ParameterSet Best;
  /// Fitness of Best / of the paper defaults (lower is better; Best <=
  /// Baseline because the search starts at the defaults and only moves
  /// on a strict improvement).
  double BestFitness = 0.0;
  double BaselineFitness = 0.0;
  /// Sweeps run, the last one included (it moved nothing unless the
  /// search stopped at MaxSweeps).
  unsigned Sweeps = 0;
  /// Fitness evaluations performed by this Tuner so far (memo-cache
  /// misses, the defaults included).
  uint64_t Evaluations = 0;
  /// Best fitness after each sweep (History.size() == Sweeps).
  std::vector<double> History;
};

/// The coordinate-search tuner. Reusable: run() is const apart from the
/// fitness memo-cache, and repeated runs with equal options return
/// identical results.
class Tuner {
public:
  Tuner(std::shared_ptr<const PerformanceModel> Model, TunerOptions Options);

  /// Adds a recorded trace to the fitness corpus.
  void addTrace(OpTrace Trace);

  size_t traceCount() const { return Corpus.size(); }

  /// The fitness corpus, in addTrace order.
  const std::vector<OpTrace> &corpus() const { return Corpus; }

  /// Digest tying artifacts to this corpus ("crc32:XXXXXXXX" over the
  /// serialized traces, in addTrace order).
  std::string corpusDigest() const;

  /// Fitness of one parameter set over the corpus (lower is better).
  /// Exposed for tests and for scoring externally-supplied
  /// configurations; memoized.
  double evaluate(const ParameterSet &Params);

  /// Runs the search. With an empty corpus the defaults are the answer.
  TunerResult run();

  /// Packages \p Result as a `cswitch-tuning-v2` artifact with full
  /// provenance (fingerprint, sweeps, corpus digest, fitness).
  TuningArtifact makeArtifact(const TunerResult &Result) const;

  /// The ReplayOptions a parameter set's fitness replay runs with —
  /// also the exact configuration `ablation_parameters --check` uses to
  /// score artifacts, so "fitness" means the same thing everywhere.
  ReplayOptions replayOptionsFor(const ParameterSet &Params) const;

private:
  struct TraceScore {
    double Time = 0.0;
    double Alloc = 0.0;
    double SwitchesPerInstance = 0.0;
  };

  /// Replays every corpus trace under \p Params (serially, fixed seed).
  std::vector<TraceScore> score(const ParameterSet &Params) const;

  /// Scalarizes per-trace scores against the baseline.
  double fitnessOf(const std::vector<TraceScore> &Scores) const;

  std::shared_ptr<const PerformanceModel> Model;
  TunerOptions Options;
  std::vector<OpTrace> Corpus;
  /// Per-trace scores of the paper defaults (computed lazily on first
  /// evaluate()).
  std::vector<TraceScore> Baseline;
  bool BaselineReady = false;
  /// Fitness memo-cache keyed by the parameter values.
  std::map<std::array<double, NumTunableParams>, double> Cache;
  uint64_t CacheMisses = 0;
};

} // namespace tuner
} // namespace cswitch

#endif // CSWITCH_TUNER_TUNER_H

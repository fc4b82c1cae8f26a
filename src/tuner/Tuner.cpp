//===- Tuner.cpp - Offline evolutionary parameter tuner -------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "fleet/ModelArtifact.h"
#include "support/Codec.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

using namespace cswitch;
using namespace cswitch::tuner;

namespace {

/// Uniform double in [0, 1) from the top 53 bits of one draw.
double uniform01(SplitMix64 &Rng) {
  return static_cast<double>(Rng.next() >> 11) * 0x1.0p-53;
}

} // namespace

Tuner::Tuner(std::shared_ptr<const PerformanceModel> Model,
             TunerOptions Options)
    : Model(std::move(Model)), Options(Options) {}

void Tuner::addTrace(OpTrace Trace) {
  Corpus.push_back(std::move(Trace));
  // The corpus defines the fitness function; cached fitnesses and the
  // baseline are stale now.
  Cache.clear();
  Baseline.clear();
  BaselineReady = false;
}

std::string Tuner::corpusDigest() const {
  std::string All;
  for (const OpTrace &Trace : Corpus)
    All += encodeTrace(Trace);
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "crc32:%08x", codec::crc32(All));
  return Buf;
}

ReplayOptions Tuner::replayOptionsFor(const ParameterSet &Params) const {
  ReplayOptions O;
  O.Mode = ReplayMode::Engine;
  O.Seed = Options.ReplaySeed;
  O.Threads = 1; // Parallelism lives across genomes, not inside replays.
  O.EvalEveryOps = Params.evalEveryOps();
  O.Context.LogEvents = false;
  O.Context.WindowSize = Params.windowSize();
  O.Context.FinishedRatio = Params.finishedRatio();
  O.Context.WideRangeFactor = Params.wideRangeFactor();
  O.Context.WarmWindowFactor = Params.warmWindowFactor();
  O.Context.AdaptiveOverride = Params.thresholds();
  SelectionRule Rule = SelectionRule::timeRule();
  Rule.Name = "Rtime(tuned)";
  Rule.Criteria.front().Threshold = Params.ruleTimeThreshold();
  O.Rule = std::move(Rule);
  O.Model = Model;
  return O;
}

std::vector<Tuner::TraceScore>
Tuner::score(const ParameterSet &Params) const {
  std::vector<TraceScore> Scores;
  Scores.reserve(Corpus.size());
  for (const OpTrace &Trace : Corpus) {
    Replayer Replay(Trace, replayOptionsFor(Params));
    ReplayResult Result = Replay.run();
    TraceScore S;
    S.Time = Result.TrajectoryTime;
    S.Alloc = Result.TrajectoryAlloc;
    S.SwitchesPerInstance =
        Result.InstancesReplayed
            ? static_cast<double>(Result.Switches) /
                  static_cast<double>(Result.InstancesReplayed)
            : 0.0;
    Scores.push_back(S);
  }
  return Scores;
}

double Tuner::fitnessOf(const std::vector<TraceScore> &Scores,
                        const ParameterSet &Params) const {
  double Wt = Options.TimeWeight;
  double Wa = Options.AllocWeight;
  double WeightSum = Wt + Wa;
  if (!(WeightSum > 0.0)) {
    Wt = 1.0;
    Wa = 0.0;
    WeightSum = 1.0;
  }

  double Fit = 0.0;
  double WorstTimeRatio = 0.0;
  for (size_t I = 0, E = Scores.size(); I != E; ++I) {
    double TimeRatio = Baseline[I].Time > 0.0
                           ? Scores[I].Time / Baseline[I].Time
                           : 1.0;
    double AllocRatio = Baseline[I].Alloc > 0.0
                            ? Scores[I].Alloc / Baseline[I].Alloc
                            : 1.0;
    Fit += (Wt * TimeRatio + Wa * AllocRatio) / WeightSum;
    Fit += Options.SwitchPenalty * Scores[I].SwitchesPerInstance;
    WorstTimeRatio = std::max(WorstTimeRatio, TimeRatio);
  }
  if (!Scores.empty())
    Fit /= static_cast<double>(Scores.size());

  // Parameters the corpus exerts no pressure on must not drift from the
  // paper defaults just because mutation pushed them around.
  double Reg = 0.0;
  for (const ParamInfo &Info : parameterSpace()) {
    double Span = Info.Max - Info.Min;
    double Dist =
        Span > 0.0 ? (Params.get(Info.Id) - Info.Default) / Span : 0.0;
    Reg += Dist * Dist;
  }
  Fit += Options.Regularization * Reg /
         static_cast<double>(NumTunableParams);

  // Worst-trace time regression vs the default genome: winning on
  // average while losing badly somewhere fails the acceptance gate, so
  // make the search feel it too.
  Fit += Options.RegressionPenalty * std::max(0.0, WorstTimeRatio - 1.0);
  return Fit;
}

double Tuner::evaluate(const ParameterSet &Params) {
  if (!BaselineReady) {
    Baseline = score(ParameterSet());
    BaselineReady = true;
  }
  auto It = Cache.find(Params.values());
  if (It != Cache.end())
    return It->second;
  ++CacheMisses;
  double Fit = fitnessOf(score(Params), Params);
  Cache.emplace(Params.values(), Fit);
  return Fit;
}

TunerResult Tuner::run() {
  TunerResult Result;
  if (Corpus.empty()) {
    // Nothing to fit against: the defaults are the answer.
    Result.BestFitness = Result.BaselineFitness = 0.0;
    return Result;
  }

  if (!BaselineReady) {
    Baseline = score(ParameterSet());
    BaselineReady = true;
  }
  Result.BaselineFitness = evaluate(ParameterSet());

  const auto &Space = parameterSpace();
  unsigned Pop = std::max(2u, Options.Population);
  unsigned Elites = std::min(Options.Elites, Pop - 1);
  unsigned Tournament = std::max(1u, Options.TournamentSize);
  SplitMix64 Rng(Options.Seed);

  // Generation 0: the paper defaults plus uniformly random genomes —
  // the search can only improve on the defaults, never lose to them.
  std::vector<ParameterSet> Population(Pop);
  for (unsigned I = 1; I != Pop; ++I)
    for (const ParamInfo &Info : Space)
      Population[I].set(Info.Id,
                        Info.Min + uniform01(Rng) * (Info.Max - Info.Min));

  std::vector<double> Fitness(Pop);
  ParameterSet BestGenome;
  double BestFit = std::numeric_limits<double>::infinity();
  unsigned Stale = 0;

  for (unsigned Gen = 0; Gen != std::max(1u, Options.Generations); ++Gen) {
    // Evaluate the generation. Cache lookups and insertions stay on
    // this thread; workers only compute fitness for the distinct
    // uncached genomes, each into its own slot — so the cache contents,
    // the draw sequence, and therefore the whole search are identical
    // for any Threads value.
    std::vector<size_t> PendingIdx; // Index of first occurrence.
    for (size_t I = 0; I != Pop; ++I) {
      if (Cache.count(Population[I].values()))
        continue;
      bool Seen = false;
      for (size_t J : PendingIdx)
        if (Population[J] == Population[I]) {
          Seen = true;
          break;
        }
      if (!Seen)
        PendingIdx.push_back(I);
    }

    std::vector<double> Pending(PendingIdx.size());
    unsigned Threads = std::max(1u, Options.Threads);
    if (Threads <= 1 || PendingIdx.size() <= 1) {
      for (size_t J = 0; J != PendingIdx.size(); ++J) {
        const ParameterSet &P = Population[PendingIdx[J]];
        Pending[J] = fitnessOf(score(P), P);
      }
    } else {
      std::atomic<size_t> Next{0};
      auto Worker = [&] {
        for (size_t J = Next.fetch_add(1, std::memory_order_relaxed);
             J < PendingIdx.size();
             J = Next.fetch_add(1, std::memory_order_relaxed)) {
          const ParameterSet &P = Population[PendingIdx[J]];
          Pending[J] = fitnessOf(score(P), P);
        }
      };
      unsigned NumWorkers = static_cast<unsigned>(
          std::min<size_t>(Threads, PendingIdx.size()));
      std::vector<std::thread> PoolThreads;
      PoolThreads.reserve(NumWorkers - 1);
      for (unsigned T = 1; T != NumWorkers; ++T)
        PoolThreads.emplace_back(Worker);
      Worker();
      for (std::thread &T : PoolThreads)
        T.join();
    }
    for (size_t J = 0; J != PendingIdx.size(); ++J) {
      Cache.emplace(Population[PendingIdx[J]].values(), Pending[J]);
      ++CacheMisses;
    }
    for (size_t I = 0; I != Pop; ++I)
      Fitness[I] = Cache.find(Population[I].values())->second;

    // Track the champion (ties broken by genome bytes so the result
    // never depends on population order).
    double PrevBest = BestFit;
    for (size_t I = 0; I != Pop; ++I) {
      if (Fitness[I] < BestFit ||
          (Fitness[I] == BestFit && Population[I].values() <
                                        BestGenome.values())) {
        BestFit = Fitness[I];
        BestGenome = Population[I];
      }
    }
    ++Result.GenerationsRun;
    Result.History.push_back(BestFit);
    if (PrevBest - BestFit >= Options.MinImprovement)
      Stale = 0;
    else
      ++Stale;
    if (Stale >= Options.Patience)
      break;
    if (Gen + 1 == std::max(1u, Options.Generations))
      break;

    // Breed the next generation: elitism + tournament parents +
    // uniform crossover + bounded mutation. Every draw happens here,
    // on the driving thread.
    std::vector<size_t> Order(Pop);
    for (size_t I = 0; I != Pop; ++I)
      Order[I] = I;
    std::stable_sort(Order.begin(), Order.end(),
                     [&](size_t A, size_t B) {
                       if (Fitness[A] != Fitness[B])
                         return Fitness[A] < Fitness[B];
                       return Population[A].values() <
                              Population[B].values();
                     });

    auto SelectParent = [&]() -> const ParameterSet & {
      size_t Winner = Rng.nextBelow(Pop);
      for (unsigned T = 1; T != Tournament; ++T) {
        size_t Contender = Rng.nextBelow(Pop);
        if (Fitness[Contender] < Fitness[Winner])
          Winner = Contender;
      }
      return Population[Winner];
    };

    std::vector<ParameterSet> NextGen;
    NextGen.reserve(Pop);
    for (unsigned I = 0; I != Elites; ++I)
      NextGen.push_back(Population[Order[I]]);
    while (NextGen.size() != Pop) {
      const ParameterSet &ParentA = SelectParent();
      const ParameterSet &ParentB = SelectParent();
      ParameterSet Child = ParentA;
      if (uniform01(Rng) < Options.CrossoverRate)
        for (const ParamInfo &Info : Space)
          if (uniform01(Rng) < 0.5)
            Child.set(Info.Id, ParentB.get(Info.Id));
      for (const ParamInfo &Info : Space) {
        if (uniform01(Rng) >= Options.MutationRate)
          continue;
        double Span = Info.Max - Info.Min;
        if (uniform01(Rng) < 0.2) {
          // Occasional full resample keeps the search from collapsing
          // into one basin.
          Child.set(Info.Id, Info.Min + uniform01(Rng) * Span);
        } else {
          double Step = (uniform01(Rng) * 2.0 - 1.0) * 0.25 * Span;
          Child.set(Info.Id, Child.get(Info.Id) + Step);
        }
      }
      NextGen.push_back(std::move(Child));
    }
    Population = std::move(NextGen);
  }

  Result.Best = BestGenome;
  Result.BestFitness = BestFit;
  Result.Evaluations = CacheMisses;
  return Result;
}

TuningArtifact Tuner::makeArtifact(const TunerResult &Result) const {
  TuningArtifact Artifact = artifactFromParams(Result.Best);
  Artifact.HostFingerprint = fleet::hostFingerprint();
  Artifact.Seed = Options.Seed;
  Artifact.Generations = Result.GenerationsRun;
  Artifact.Population = std::max(2u, Options.Population);
  Artifact.Evaluations = Result.Evaluations;
  Artifact.CorpusDigest = corpusDigest();
  Artifact.TimeWeight = Options.TimeWeight;
  Artifact.AllocWeight = Options.AllocWeight;
  Artifact.WinnerFitness = Result.BestFitness;
  Artifact.BaselineFitness = Result.BaselineFitness;
  return Artifact;
}

//===- Tuner.cpp - Offline coordinate-search parameter tuner --------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "support/Codec.h"
#include "support/Topology.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace cswitch;
using namespace cswitch::tuner;

std::vector<double> cswitch::tuner::searchGrid(const ParamInfo &Info) {
  constexpr int Points = 9;
  bool LogSpaced =
      Info.Integer && Info.Min > 0.0 && Info.Max / Info.Min >= 64.0;
  std::vector<double> Grid;
  Grid.reserve(Points + 1);
  for (int I = 0; I != Points; ++I) {
    double T = static_cast<double>(I) / (Points - 1);
    double V = LogSpaced ? Info.Min * std::pow(Info.Max / Info.Min, T)
                         : Info.Min + T * (Info.Max - Info.Min);
    Grid.push_back(clampParam(Info, V));
  }
  Grid.push_back(Info.Default);
  std::sort(Grid.begin(), Grid.end());
  Grid.erase(std::unique(Grid.begin(), Grid.end()), Grid.end());
  return Grid;
}

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
  O.Context.LogEvents = false;
  O.Context.WindowSize = Params.windowSize();
  O.Context.FinishedRatio = Params.finishedRatio();
  O.Context.WideRangeFactor = Params.wideRangeFactor();
  O.Context.AdaptiveOverride = Params.thresholds();
  O.Model = Model;
  return O;
}

std::vector<Tuner::TraceScore>
Tuner::score(const ParameterSet &Params) const {
  std::vector<TraceScore> Scores;
  Scores.reserve(Corpus.size());
  for (const ReplayResult &Result :
       replayCorpus(Corpus, replayOptionsFor(Params))) {
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

double Tuner::fitnessOf(const std::vector<TraceScore> &Scores) const {
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

  // Worst-trace time regression vs the defaults: winning on average
  // while losing badly somewhere fails the acceptance gate, so make the
  // search feel it too.
  Fit += Options.RegressionPenalty * std::max(0.0, WorstTimeRatio - 1.0);
  return Fit;
}

double Tuner::evaluate(const ParameterSet &Params) {
  if (!BaselineReady) {
    // The defaults' own replay is both the baseline and their fitness.
    Baseline = score(ParameterSet());
    BaselineReady = true;
    Cache.emplace(ParameterSet().values(), fitnessOf(Baseline));
    ++CacheMisses;
  }
  auto It = Cache.find(Params.values());
  if (It != Cache.end())
    return It->second;
  ++CacheMisses;
  double Fit = fitnessOf(score(Params));
  Cache.emplace(Params.values(), Fit);
  return Fit;
}

TunerResult Tuner::run() {
  TunerResult Result;
  if (Corpus.empty())
    return Result; // Nothing to fit against: the defaults are the answer.

  Result.BaselineFitness = evaluate(Result.Best);
  double BestFit = Result.BaselineFitness;
  bool Moved = true;
  while (Moved && Result.Sweeps != MaxSweeps) {
    Moved = false;
    for (const ParamInfo &Info : parameterSpace()) {
      ParameterSet Candidate = Result.Best;
      for (double Value : searchGrid(Info)) {
        Candidate.set(Info.Id, Value);
        double Fit = evaluate(Candidate);
        // Strictly better only: ties keep the incumbent.
        if (Fit < BestFit) {
          BestFit = Fit;
          Result.Best = Candidate;
          Moved = true;
        }
      }
    }
    ++Result.Sweeps;
    Result.History.push_back(BestFit);
  }
  Result.BestFitness = BestFit;
  Result.Evaluations = CacheMisses;
  return Result;
}

TuningArtifact Tuner::makeArtifact(const TunerResult &Result) const {
  TuningArtifact Artifact = artifactFromParams(Result.Best);
  Artifact.HostFingerprint = hostFingerprint();
  Artifact.Sweeps = Result.Sweeps;
  Artifact.Evaluations = Result.Evaluations;
  Artifact.CorpusDigest = corpusDigest();
  Artifact.TimeWeight = Options.TimeWeight;
  Artifact.AllocWeight = Options.AllocWeight;
  Artifact.WinnerFitness = Result.BestFitness;
  Artifact.BaselineFitness = Result.BaselineFitness;
  return Artifact;
}

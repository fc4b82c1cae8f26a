//===- PolicySimulator.cpp - Offline what-if policy sweeps ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "replay/PolicySimulator.h"

#include "support/MetricsExport.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace cswitch;

PolicySimulator::PolicySimulator(
    std::shared_ptr<const PerformanceModel> Model)
    : Model(std::move(Model)) {}

void PolicySimulator::addTrace(OpTrace Trace) {
  Corpus.push_back(std::move(Trace));
}

void PolicySimulator::addPolicy(PolicyCandidate Policy) {
  Policies.push_back(std::move(Policy));
}

void PolicySimulator::addDefaultPolicies() {
  auto Add = [this](std::string Name, SelectionRule Rule,
                    ContextOptions Context = {}) {
    PolicyCandidate P;
    P.Name = std::move(Name);
    P.Rule = std::move(Rule);
    P.Context = Context;
    P.Context.LogEvents = false; // keep sweeps out of the global EventLog
    Policies.push_back(std::move(P));
  };

  Add("Rtime", SelectionRule::timeRule());
  Add("Ralloc", SelectionRule::allocRule());
  Add("Renergy", SelectionRule::energyRule());
  Add("static", SelectionRule::impossibleRule());

  // Rtime threshold sweep (Table 4 uses 0.8; how sensitive is it?).
  SelectionRule Aggressive = SelectionRule::timeRule();
  Aggressive.Name = "Rtime(0.9)";
  Aggressive.Criteria.front().Threshold = 0.9;
  Add("Rtime-0.9", std::move(Aggressive));
  SelectionRule Conservative = SelectionRule::timeRule();
  Conservative.Name = "Rtime(0.7)";
  Conservative.Criteria.front().Threshold = 0.7;
  Add("Rtime-0.7", std::move(Conservative));

  // Window-size sweep around the paper's 100.
  Add("Rtime-w50", SelectionRule::timeRule(),
      ContextOptions{}.windowSize(50));
  Add("Rtime-w200", SelectionRule::timeRule(),
      ContextOptions{}.windowSize(200));

  // Adaptive-threshold variant: paper Table 1 values halved.
  PolicyCandidate HalfThresholds;
  HalfThresholds.Name = "Rtime-adapt/2";
  HalfThresholds.Rule = SelectionRule::timeRule();
  HalfThresholds.Context.LogEvents = false;
  HalfThresholds.Context.AdaptiveOverride = AdaptiveThresholds{40, 20, 25};
  Policies.push_back(std::move(HalfThresholds));
}

SimulationReport PolicySimulator::run(uint64_t Seed, unsigned Threads) {
  SimulationReport Report;
  // Aggregate profiles once per trace; predicted costs reuse them for
  // every policy.
  std::vector<std::vector<SiteProfile>> Aggregates;
  Aggregates.reserve(Corpus.size());
  for (const OpTrace &Trace : Corpus)
    Aggregates.push_back(aggregateTrace(Trace));

  for (const PolicyCandidate &Policy : Policies) {
    PolicyOutcome Outcome;
    Outcome.Name = Policy.Name;

    ReplayOptions Options;
    Options.Mode = ReplayMode::Engine;
    Options.Seed = Seed;
    Options.Threads = Threads;
    Options.EvalEveryOps = Policy.EvalEveryOps;
    Options.Context = Policy.Context;
    Options.Rule = Policy.Rule;
    Options.Model = Model;
    std::vector<ReplayResult> Results = replayCorpus(Corpus, Options);
    for (size_t T = 0, E = Results.size(); T != E; ++T) {
      const ReplayResult &Result = Results[T];
      Outcome.OpsExecuted += Result.OpsExecuted;
      Outcome.InstancesReplayed += Result.InstancesReplayed;
      Outcome.Evaluations += Result.Evaluations;
      Outcome.Switches += Result.Switches;
      Outcome.SizeMismatches += Result.SizeMismatches;
      Outcome.ElapsedNanos += Result.ElapsedNanos;
      Outcome.AllocatedBytes += Result.AllocatedBytes;
      Outcome.TrajectoryTime += Result.TrajectoryTime;
      Outcome.TrajectoryAlloc += Result.TrajectoryAlloc;

      for (size_t S = 0, NumSites = Result.Sites.size(); S != NumSites;
           ++S) {
        const SiteReplayResult &Site = Result.Sites[S];
        std::string Key;
        if (E > 1) {
          Key += "t";
          Key += std::to_string(T);
          Key += ":";
        }
        Key += Site.Name;
        VariantId Final{Site.Kind, Site.FinalVariantIndex};
        Outcome.FinalVariants.emplace_back(std::move(Key),
                                           Final.name());
        // Predicted cost of finishing on this variant, over the
        // trace's aggregated per-instance profiles.
        if (S < Aggregates[T].size()) {
          for (const WorkloadProfile &Profile :
               Aggregates[T][S].Profiles) {
            Outcome.PredictedTime +=
                Model->totalCost(Final, Profile, CostDimension::Time);
            Outcome.PredictedAlloc +=
                Model->totalCost(Final, Profile, CostDimension::Alloc);
          }
        }
      }
    }

    Report.Ranked.push_back(std::move(Outcome));
  }

  std::stable_sort(Report.Ranked.begin(), Report.Ranked.end(),
                   [](const PolicyOutcome &L, const PolicyOutcome &R) {
                     return L.ElapsedNanos < R.ElapsedNanos;
                   });
  if (!Report.Ranked.empty())
    Report.Best = Report.Ranked.front().Name;
  return Report;
}

std::string SimulationReport::render() const {
  std::string Out;
  Out += "what-if policy sweep (";
  Out += std::to_string(Ranked.size());
  Out += " policies, ranked by replayed time)\n";
  Out += "rank  policy          elapsed_ms   alloc_mb  switches  evals  "
         "pred_time_ms  mismatches\n";
  char Line[160];
  for (size_t I = 0, E = Ranked.size(); I != E; ++I) {
    const PolicyOutcome &O = Ranked[I];
    std::snprintf(Line, sizeof(Line),
                  "%4zu  %-14s %10.3f %10.3f %9llu %6llu %13.3f %11llu\n",
                  I + 1, O.Name.c_str(),
                  static_cast<double>(O.ElapsedNanos) / 1e6,
                  static_cast<double>(O.AllocatedBytes) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(O.Switches),
                  static_cast<unsigned long long>(O.Evaluations),
                  O.PredictedTime / 1e6,
                  static_cast<unsigned long long>(O.SizeMismatches));
    Out += Line;
  }
  if (!Best.empty()) {
    Out += "best: ";
    Out += Best;
    Out += "\n";
  }
  return Out;
}

std::string SimulationReport::toJson() const {
  auto Num = [](double Value) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
    return std::string(Buf);
  };
  std::string Out = "{\n";
  Out += "  \"schema\": \"cswitch-simulate-v2\",\n";
  Out += "  \"policies\": " + std::to_string(Ranked.size()) + ",\n";
  Out += "  \"best\": \"" + jsonEscape(Best) + "\",\n";
  Out += "  \"ranked\": [\n";
  for (size_t I = 0, E = Ranked.size(); I != E; ++I) {
    const PolicyOutcome &O = Ranked[I];
    Out += "    {\"rank\": " + std::to_string(I + 1) + ", ";
    Out += "\"policy\": \"" + jsonEscape(O.Name) + "\", ";
    Out += "\"elapsed_ns\": " + std::to_string(O.ElapsedNanos) + ", ";
    Out += "\"allocated_bytes\": " + std::to_string(O.AllocatedBytes) + ", ";
    Out += "\"ops\": " + std::to_string(O.OpsExecuted) + ", ";
    Out += "\"instances\": " + std::to_string(O.InstancesReplayed) + ", ";
    Out += "\"evaluations\": " + std::to_string(O.Evaluations) + ", ";
    Out += "\"switches\": " + std::to_string(O.Switches) + ", ";
    Out += "\"size_mismatches\": " + std::to_string(O.SizeMismatches) + ", ";
    Out += "\"predicted_time\": " + Num(O.PredictedTime) + ", ";
    Out += "\"predicted_alloc\": " + Num(O.PredictedAlloc) + ", ";
    Out += "\"trajectory_time\": " + Num(O.TrajectoryTime) + ", ";
    Out += "\"trajectory_alloc\": " + Num(O.TrajectoryAlloc) + ", ";
    Out += "\"final_variants\": [";
    for (size_t V = 0, NumV = O.FinalVariants.size(); V != NumV; ++V) {
      if (V)
        Out += ", ";
      Out += "{\"site\": \"" + jsonEscape(O.FinalVariants[V].first) +
             "\", \"variant\": \"" + jsonEscape(O.FinalVariants[V].second) +
             "\"}";
    }
    Out += "]}";
    Out += I + 1 == E ? "\n" : ",\n";
  }
  Out += "  ]\n";
  Out += "}\n";
  return Out;
}

//===- renergy_extension.cpp - Energy-dimension extension -----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Extension experiment (not a paper table): the paper's §7 future work
// proposes expanding the model to energy. With energy derived from time
// and alloc (CostModel.h), this harness compares the variant each rule selects
// for the same set of workload profiles — showing where Renergy agrees
// with Rtime (lookup-dominated work: energy tracks time) and where it
// sides with Ralloc (allocation-churn-dominated work).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/Switch.h"

#include <cstdio>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

/// Runs a synthetic profile mix through one context per rule and reports
/// each rule's chosen variant.
void compareRules(const char *Scenario,
                  const std::shared_ptr<const PerformanceModel> &Model,
                  uint64_t Populates, uint64_t Lookups, uint64_t MaxSize) {
  std::printf("%-34s", Scenario);
  for (const SelectionRule &Rule :
       {SelectionRule::timeRule(), SelectionRule::allocRule(),
        SelectionRule::energyRule()}) {
    ContextOptions Options;
    Options.WindowSize = 10;
    Options.FinishedRatio = 0.5;
    Options.LogEvents = false;
    SetContext<int64_t> Ctx("renergy", SetVariant::ChainedHashSet, Model,
                            Rule, Options);
    for (int I = 0; I != 10; ++I) {
      Set<int64_t> S = Ctx.createSet();
      for (uint64_t V = 0; V != MaxSize; ++V)
        S.add(static_cast<int64_t>(V));
      // Scale the op counters to the scenario (the facade records one
      // populate per add; extra populates are emulated by re-adding).
      for (uint64_t P = MaxSize; P < Populates; ++P)
        S.add(static_cast<int64_t>(P % MaxSize));
      for (uint64_t L = 0; L != Lookups; ++L)
        (void)S.contains(static_cast<int64_t>(L % (MaxSize * 2)));
    }
    Ctx.evaluate();
    std::printf(" %-16s", Ctx.currentVariant().name().c_str());
  }
  std::printf("\n");
}

} // namespace

int main() {
  std::shared_ptr<const PerformanceModel> Model = loadModel();
  std::printf("\nExtension: variant selected per rule (set abstraction, "
              "initial ChainedHashSet)\n");
  std::printf("%-34s %-16s %-16s %-16s\n", "workload", "Rtime", "Ralloc",
              "Renergy");
  compareRules("lookup-dominated (n=500)", Model, 500, 5000, 500);
  compareRules("churn-dominated (n=200)", Model, 4000, 50, 200);
  compareRules("balanced (n=300)", Model, 900, 900, 300);
  compareRules("tiny sets (n=12)", Model, 24, 60, 12);
  std::printf("\nEnergy model: E = %g nJ/ns * time + %g nJ/B * alloc "
              "(derived in PerformanceModel::setCost)\n",
              NanojoulesPerNanosecond, NanojoulesPerByte);
  return 0;
}

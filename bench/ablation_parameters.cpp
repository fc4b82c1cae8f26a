//===- ablation_parameters.cpp - Framework parameter ablations ------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Ablation studies of the design choices DESIGN.md calls out (the paper
// fixes window size = 100, finished ratio = 0.6 and gates adaptive
// variants behind a wide-size-range test; here each knob is swept):
//
//  (a) window size — adaptation latency (instances until the first
//      correct switch) versus per-round analysis cost;
//  (b) finished ratio — decision latency versus decision stability
//      (switch-back count on a noisy workload);
//  (c) the adaptive-variant eligibility gate — decisions with the gate
//      on versus off on a narrow-size workload.
//
// It takes no options; any argument is refused (exit 2).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/Switch.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <cstdio>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

/// Runs lookup-heavy instances through the context until it switches or
/// \p MaxInstances were created; returns instances consumed (or
/// MaxInstances if it never switched).
size_t instancesUntilSwitch(ListContext<int64_t> &Ctx,
                            size_t MaxInstances) {
  for (size_t I = 0; I != MaxInstances; ++I) {
    {
      List<int64_t> L = Ctx.createList();
      for (int64_t V = 0; V != 300; ++V)
        L.add(V);
      for (int64_t V = 0; V != 3000; ++V)
        (void)L.contains(V);
    }
    if (I % 10 == 9) {
      Ctx.evaluate();
      if (Ctx.switchCount() > 0)
        return I + 1;
    }
  }
  return MaxInstances;
}

void windowSizeAblation(
    const std::shared_ptr<const PerformanceModel> &Model) {
  std::printf("\n(a) window size: adaptation latency vs analysis cost\n");
  std::printf("%8s %22s %20s\n", "window", "instances to switch",
              "eval cost (us)");
  for (size_t Window : {10u, 25u, 50u, 100u, 250u, 500u}) {
    ContextOptions Options;
    Options.WindowSize = Window;
    Options.FinishedRatio = 0.6;
    Options.LogEvents = false;
    ListContext<int64_t> Ctx("ablation:w", ListVariant::ArrayList, Model,
                             SelectionRule::timeRule(), Options);
    size_t Latency = instancesUntilSwitch(Ctx, 2000);

    // Analysis cost of one full window.
    ListContext<int64_t> CostCtx("ablation:wc", ListVariant::ArrayList,
                                 Model, SelectionRule::impossibleRule(),
                                 Options);
    for (size_t I = 0; I != Window; ++I) {
      List<int64_t> L = CostCtx.createList();
      L.add(1);
    }
    Timer Clock;
    CostCtx.evaluate();
    std::printf("%8zu %22zu %20.1f\n", Window, Latency,
                static_cast<double>(Clock.elapsedNanos()) / 1e3);
  }
}

void finishedRatioAblation(
    const std::shared_ptr<const PerformanceModel> &Model) {
  std::printf("\n(b) finished ratio: decision latency vs stability\n");
  std::printf("%8s %22s %14s\n", "ratio", "instances to switch",
              "switches");
  for (double Ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    ContextOptions Options;
    Options.WindowSize = 100;
    Options.FinishedRatio = Ratio;
    Options.LogEvents = false;
    ListContext<int64_t> Ctx("ablation:r", ListVariant::ArrayList, Model,
                             SelectionRule::timeRule(), Options);
    size_t Latency = instancesUntilSwitch(Ctx, 2000);

    // Noisy alternating workload: low ratios decide on partial windows
    // and thrash more.
    ContextOptions Noisy = Options;
    ListContext<int64_t> NoisyCtx("ablation:rn", ListVariant::ArrayList,
                                  Model, SelectionRule::timeRule(), Noisy);
    SplitMix64 Rng(3);
    for (int Round = 0; Round != 40; ++Round) {
      // Phases alternate between a lookup-heavy mix (favors
      // HashArrayList) and a positional mix (favors ArrayList).
      bool LookupHeavy = Round % 2 == 0;
      for (int I = 0; I != 60; ++I) {
        List<int64_t> L = NoisyCtx.createList();
        for (int64_t V = 0; V != 300; ++V)
          L.add(V);
        if (LookupHeavy) {
          for (size_t V = 0; V != 3000; ++V)
            (void)L.contains(static_cast<int64_t>(Rng.nextBelow(600)));
        } else {
          for (size_t V = 0; V != 3000; ++V)
            (void)L.get(Rng.nextBelow(300));
        }
      }
      NoisyCtx.evaluate();
    }
    std::printf("%8.1f %22zu %14llu\n", Ratio, Latency,
                static_cast<unsigned long long>(NoisyCtx.switchCount()));
  }
}

void adaptiveGateAblation(
    const std::shared_ptr<const PerformanceModel> &Model) {
  std::printf("\n(c) adaptive-variant gate on a narrow-size set "
              "workload (all instances ~20 elements)\n");
  for (double Factor : {4.0, 1.0}) { // 1.0 effectively disables the gate
    ContextOptions Options;
    Options.WindowSize = 50;
    Options.FinishedRatio = 0.6;
    Options.LogEvents = false;
    Options.WideRangeFactor = Factor;
    SetContext<int64_t> Ctx("ablation:g", SetVariant::ChainedHashSet,
                            Model, SelectionRule::allocRule(), Options);
    for (int I = 0; I != 50; ++I) {
      Set<int64_t> S = Ctx.createSet();
      for (int64_t V = 0; V != 20; ++V)
        S.add(V);
      for (int64_t V = 0; V != 40; ++V)
        (void)S.contains(V);
    }
    Ctx.evaluate();
    std::printf("  gate %s -> selected %s\n",
                Factor > 1.0 ? "ON (factor 4)" : "OFF(factor 1)",
                Ctx.currentVariant().name().c_str());
  }
  std::printf("  (with the gate off, AdaptiveSet may be selected even "
              "though every instance\n   stays below its threshold — "
              "the paper's §3.2 rationale for the gate)\n");
}

} // namespace

int main(int Argc, char **) {
  if (Argc > 1) {
    std::fprintf(stderr, "usage: ablation_parameters (takes no options)\n");
    return 2;
  }
  std::shared_ptr<const PerformanceModel> Model = loadModel();
  std::printf("Ablation of framework parameters (paper defaults: window "
              "100, ratio 0.6, gate on)\n");
  windowSizeAblation(Model);
  finishedRatioAblation(Model);
  adaptiveGateAblation(Model);
  return 0;
}

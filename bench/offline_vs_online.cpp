//===- offline_vs_online.cpp - Offline advice vs online adaptation --------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The comparison behind the paper's §6 positioning: offline advisors
// (Chameleon/Brainy-style) recommend one static variant per site from a
// profiling run, while CollectionSwitch adapts at runtime. On a stable
// workload the two agree; on a phase-shifting workload the offline
// choice is a compromise that loses to online adaptation. This harness
// measures both cases.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/OfflineAdvisor.h"
#include "core/Switch.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <cstdio>
#include <functional>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

/// Two-phase list workload: Phase A is lookup-heavy, phase B is
/// positional. Returns elapsed ms.
double runTwoPhases(const std::function<List<int64_t>()> &MakeList,
                    const std::function<void()> &BetweenIterations) {
  SplitMix64 Rng(5);
  Timer Clock;
  for (int Phase = 0; Phase != 2; ++Phase) {
    for (int Iter = 0; Iter != 8; ++Iter) {
      for (int I = 0; I != 150; ++I) {
        List<int64_t> L = MakeList();
        for (int64_t V = 0; V != 400; ++V)
          L.add(V);
        if (Phase == 0) {
          for (int64_t V = 0; V != 2500; ++V)
            (void)L.contains(static_cast<int64_t>(Rng.nextBelow(800)));
        } else {
          for (size_t V = 0; V != 2500; ++V)
            (void)L.get(Rng.nextBelow(400));
        }
      }
      BetweenIterations();
    }
  }
  return Clock.elapsedSeconds() * 1e3;
}

} // namespace

int main() {
  std::shared_ptr<const PerformanceModel> Model = loadModel();

  // --- Profiling run: record every instance's workload offline-style. --
  ProfileAggregator Profiler("ovo:list", AbstractionKind::List,
                             static_cast<unsigned>(ListVariant::ArrayList));
  {
    size_t Slot = 0;
    runTwoPhases(
        [&Profiler, &Slot] {
          return List<int64_t>(
              makeListImpl<int64_t>(ListVariant::ArrayList), &Profiler,
              Slot++);
        },
        [] {});
  }
  std::vector<SiteRecommendation> Advice =
      adviseOffline({Profiler.profile()}, *Model, SelectionRule::timeRule());
  std::printf("\noffline advisor on the two-phase profile:\n  %s\n",
              Advice[0].toString().c_str());
  ListVariant OfflineChoice =
      Advice[0].RecommendedVariantIndex
          ? static_cast<ListVariant>(*Advice[0].RecommendedVariantIndex)
          : ListVariant::ArrayList;

  // --- Deployment runs. ------------------------------------------------
  double BaselineMs = runTwoPhases(
      [] {
        return List<int64_t>(
            makeListImpl<int64_t>(ListVariant::ArrayList));
      },
      [] {});

  double OfflineMs = runTwoPhases(
      [OfflineChoice] {
        return List<int64_t>(makeListImpl<int64_t>(OfflineChoice));
      },
      [] {});

  ContextOptions Options;
  Options.WindowSize = 100;
  Options.FinishedRatio = 0.6;
  Options.LogEvents = false;
  ListContext<int64_t> Ctx("ovo:online", ListVariant::ArrayList, Model,
                           SelectionRule::timeRule(), Options);
  double OnlineMs = runTwoPhases([&Ctx] { return Ctx.createList(); },
                                 [&Ctx] { Ctx.evaluate(); });

  std::printf("\ntwo-phase workload (lookup phase, then positional "
              "phase):\n");
  std::printf("  %-34s %8.1f ms\n", "fixed ArrayList (developer default)",
              BaselineMs);
  std::printf("  %-34s %8.1f ms  (one static choice: %s)\n",
              "offline advisor's recommendation", OfflineMs,
              listVariantName(OfflineChoice));
  std::printf("  %-34s %8.1f ms  (%llu transitions)\n",
              "CollectionSwitch online", OnlineMs,
              static_cast<unsigned long long>(Ctx.switchCount()));
  std::printf("\n(online adaptation can beat any single static choice "
              "once the workload shifts — the paper's §1 motivation)\n");
  return 0;
}

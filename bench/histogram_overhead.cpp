//===- histogram_overhead.cpp - Continuous-profiling cost & fig7 p99s -----===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Two questions about the continuous profiling layer (src/obs/):
//
// Part 1 — what does it cost? The fig7 contended monitoring cycle
// (create/add/contains/destroy against one shared context with rounds
// rotating) run twice per thread count: profiling enabled (the default)
// and disabled via ProfilingRegistry::setEnabled(false). The delta is
// the price of the 1-in-64 sampled clocking on the record fast path.
//
// Part 2 — what does it see? The latency distributions the enabled runs
// collected: per-path p50/p99/p999 of record (sampled), evaluate and
// switch, i.e. the tail data Fig. 7's averages cannot show. Both parts
// are emitted into BENCH_histogram.json so the perf-trajectory file set
// covers latency distributions.
//
// The thread ladder is BenchSupport's threadSweep — {1,2,4,8,16,32,64}
// clamped to this machine, --max-threads overriding the ceiling.
//
//   histogram_overhead [--instances N] [--max-threads N]
//                      [--json PATH | --no-json]
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/Switch.h"
#include "obs/Profiling.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

struct CycleResult {
  size_t Threads = 0;
  uint64_t Instances = 0;
  double NanosPerInstance = 0.0;
};

/// The fig7 contended cycle: \p Threads workers hammer one shared
/// context with monitored create/destroy cycles while rounds rotate.
CycleResult contendedCycle(size_t Threads, size_t PerThread,
                           const std::shared_ptr<const PerformanceModel> &M,
                           const char *SiteName) {
  ContextOptions Options;
  Options.WindowSize = 64;
  Options.FinishedRatio = 0.5;
  Options.LogEvents = false;
  ListContext<int64_t> Ctx(SiteName, ListVariant::ArrayList, M,
                           SelectionRule::impossibleRule(), Options);

  std::atomic<bool> Stop{false};
  std::atomic<size_t> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Ctx, &Ready, &Go, PerThread] {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire)) {
      }
      for (size_t I = 0; I != PerThread; ++I) {
        List<int64_t> L = Ctx.createList();
        L.add(static_cast<int64_t>(I));
        (void)L.contains(1);
        if (I % 256 == 255)
          Ctx.evaluate();
      }
    });
  }
  std::thread Evaluator([&Ctx, &Stop] {
    while (!Stop.load(std::memory_order_relaxed)) {
      Ctx.evaluate();
      std::this_thread::yield();
    }
  });
  while (Ready.load() != Threads) {
  }
  Timer Clock;
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  double Nanos = static_cast<double>(Clock.elapsedNanos());
  Stop.store(true, std::memory_order_relaxed);
  Evaluator.join();

  CycleResult R;
  R.Threads = Threads;
  R.Instances = Ctx.instancesCreated();
  R.NanosPerInstance = Nanos / static_cast<double>(R.Instances);
  return R;
}

double medianCycle(size_t Threads, size_t PerThread,
                   const std::shared_ptr<const PerformanceModel> &M,
                   const char *SiteName) {
  std::vector<double> Reps;
  size_t Per = std::max<size_t>(PerThread / Threads, 64);
  for (int R = 0; R != 9; ++R)
    Reps.push_back(
        contendedCycle(Threads, Per, M, SiteName).NanosPerInstance);
  std::sort(Reps.begin(), Reps.end());
  return Reps[4];
}

const char *jsonPath(int Argc, char **Argv) {
  if (hasFlag(Argc, Argv, "--no-json"))
    return nullptr;
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--json") == 0)
      return Argv[I + 1];
  return "BENCH_histogram.json";
}

void printStats(const char *Path, const LatencyStats &S) {
  std::printf("%10s  %10llu  %8llu  %10.0f  %10.0f  %10.0f  %10llu\n", Path,
              static_cast<unsigned long long>(S.Count),
              static_cast<unsigned long long>(S.MinNanos), S.P50, S.P99,
              S.P999, static_cast<unsigned long long>(S.MaxNanos));
}

void jsonStats(std::FILE *F, const char *Key, const LatencyStats &S,
               const char *Trailer) {
  std::fprintf(F,
               "    \"%s\": {\"count\": %llu, \"min_nanos\": %llu, "
               "\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, "
               "\"p999\": %.1f, \"max_nanos\": %llu}%s\n",
               Key, static_cast<unsigned long long>(S.Count),
               static_cast<unsigned long long>(S.MinNanos), S.P50, S.P90,
               S.P99, S.P999, static_cast<unsigned long long>(S.MaxNanos),
               Trailer);
}

} // namespace

int main(int Argc, char **Argv) {
  std::shared_ptr<const PerformanceModel> Model = loadModel();
  size_t PerThread = static_cast<size_t>(
      std::max(intOption(Argc, Argv, "--instances", 200000), 8L));

  struct Row {
    size_t Threads;
    double ProfiledNs;
    double UnprofiledNs;
  };
  std::vector<Row> Rows;
  std::vector<size_t> Sweep = threadSweep(Argc, Argv);
  std::printf("Continuous profiling: fig7 contended cycle with histograms "
              "on vs off\n");
  std::printf("(topology: %s)\n", topologyJson().c_str());
  std::printf("%8s  %14s  %14s  %10s\n", "threads", "profiled ns",
              "unprofiled ns", "delta ns");
  for (size_t Threads : Sweep) {
    obs::ProfilingRegistry::setEnabled(true);
    double On = medianCycle(Threads, PerThread, Model, "hist:profiled");
    obs::ProfilingRegistry::setEnabled(false);
    double Off = medianCycle(Threads, PerThread, Model, "hist:unprofiled");
    obs::ProfilingRegistry::setEnabled(true);
    Rows.push_back({Threads, On, Off});
    std::printf("%8zu  %14.1f  %14.1f  %10.1f\n", Threads, On, Off,
                On - Off);
  }

  // The distributions the enabled runs just filled in.
  const obs::SiteProfile *Site =
      obs::ProfilingRegistry::global().profile("hist:profiled");
  SiteLatencies L = Site->latencies();
  std::printf("\nCollected fig7-cycle latency distributions (ns)\n");
  std::printf("%10s  %10s  %8s  %10s  %10s  %10s  %10s\n", "path", "count",
              "min", "p50", "p99", "p999", "max");
  printStats("record", L.Record);
  printStats("evaluate", L.Evaluate);
  printStats("switch", L.Switch);

  if (const char *Path = jsonPath(Argc, Argv)) {
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path);
      return 1;
    }
    std::fprintf(F, "{\n  \"bench\": \"histogram_overhead\",\n");
    std::fprintf(F, "  \"topology\": %s,\n", topologyJson().c_str());
    std::fprintf(F, "  \"contended_cycle\": [\n");
    for (size_t I = 0; I != Rows.size(); ++I)
      std::fprintf(F,
                   "    {\"threads\": %zu, \"profiled_ns\": %.1f, "
                   "\"unprofiled_ns\": %.1f, \"delta_ns\": %.1f}%s\n",
                   Rows[I].Threads, Rows[I].ProfiledNs, Rows[I].UnprofiledNs,
                   Rows[I].ProfiledNs - Rows[I].UnprofiledNs,
                   I + 1 == Rows.size() ? "" : ",");
    std::fprintf(F, "  ],\n  \"fig7_cycle_latency\": {\n");
    jsonStats(F, "record", L.Record, ",");
    jsonStats(F, "evaluate", L.Evaluate, ",");
    jsonStats(F, "switch", L.Switch, "");
    std::fprintf(F, "  }\n}\n");
    std::fclose(F);
    std::printf("\n[wrote %s]\n", Path);
  }
  return 0;
}

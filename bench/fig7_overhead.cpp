//===- fig7_overhead.cpp - Reproduces Fig. 7 + contended monitoring cost --===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Part 1 — the cost of analyzing the collection metrics as a function of
// the monitored window size (paper §5.3, Fig. 7: ~250-285 ns per analyzed
// collection, flat from 100 to 100k). The harness fills a context's
// window with finished profiles and times evaluate(), reporting
// nanoseconds per monitored collection.
//
// Part 2 — beyond the paper: the per-instance cost of the monitoring
// fast path itself (slot acquisition at creation + profile publication
// at destruction) on one contended context across the thread ladder
// {1,2,4,8,16,32,64} clamped to this machine (BenchSupport's
// threadSweep; --max-threads overrides the ceiling), with rounds
// rotating every 256 instances. Reps alternate the thread counts and
// the arms, and the table reports medians over reps.
// A third arm, the bare cycle plus one shared-counter write, is the
// reference of --check-scaling: exit nonzero when, at any thread count
// from two up to the cpu count, the median per-rep ratio of the
// monitored cycle to it exceeds 1.30 (a contended write added to the
// fast path pushes it towards 2).
//
// Part 3 — the cost of the telemetry ring itself: contended
// EventLog::record() (interned ids, no strings) across the same thread
// ladder racing one drainer, in nanoseconds per record() call. This is
// the price a context pays per event when LogEvents is on.
//
// Results are emitted as machine-readable JSON (default:
// BENCH_overhead.json + BENCH_telemetry.json; --json <path> /
// --telemetry-json <path> override, --no-json disables both) to seed
// the repo's perf trajectory.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/Switch.h"
#include "support/EventLog.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

double median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  return Values[Values.size() / 2];
}

double analysisNanosPerCollection(
    size_t WindowSize, const std::shared_ptr<const PerformanceModel> &M) {
  ContextOptions Options;
  Options.WindowSize = WindowSize;
  Options.FinishedRatio = 0.6;
  Options.LogEvents = false;
  ListContext<int64_t> Ctx("fig7", ListVariant::ArrayList, M,
                           SelectionRule::impossibleRule(), Options);
  // Fill the window with realistic finished profiles.
  for (size_t I = 0; I != WindowSize; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t V = 0; V != 32; ++V)
      L.add(V);
    for (int64_t V = 0; V != 16; ++V)
      (void)L.contains(V);
  }
  Timer Clock;
  bool Switched = Ctx.evaluate();
  double Nanos = static_cast<double>(Clock.elapsedNanos());
  (void)Switched;
  return Nanos / static_cast<double>(WindowSize);
}

struct ContendedResult {
  size_t Threads = 0;
  uint64_t Instances = 0;
  uint64_t Monitored = 0;
  uint64_t Rounds = 0;
  double NanosPerInstance = 0.0;
  double BaselineNanos = 0.0; // same cycle, no context/monitoring at all
  double SharedLineNanos = 0.0; // baseline + one shared-counter write
};

/// The same create/add/contains/destroy cycle against a bare collection,
/// with no allocation context involved: the floor that isolates the
/// monitoring overhead (ns/instance minus this) from plain list work.
/// With \p BumpSharedLine every cycle also increments one counter all
/// threads share: the cost a shared context's creation counter alone
/// puts on each create, and the reference of the scaling gate.
double bareCycleCost(size_t Threads, size_t PerThread, bool BumpSharedLine) {
  struct alignas(64) Line {
    std::atomic<uint64_t> Value{0};
  };
  Line Shared;
  std::atomic<size_t> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Shared, &Ready, &Go, PerThread, BumpSharedLine] {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire)) {
      }
      for (size_t I = 0; I != PerThread; ++I) {
        if (BumpSharedLine)
          Shared.Value.fetch_add(1, std::memory_order_relaxed);
        List<int64_t> L(makeListImpl<int64_t>(ListVariant::ArrayList));
        L.add(static_cast<int64_t>(I));
        (void)L.contains(1);
      }
    });
  }
  while (Ready.load() != Threads) {
  }
  Timer Clock;
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  double Nanos = static_cast<double>(Clock.elapsedNanos());
  return Nanos / static_cast<double>(Threads * PerThread);
}

/// Hammers one shared context with monitored create/destroy cycles from
/// \p Threads threads, each rotating rounds every 256 instances. There
/// is no dedicated evaluator thread: evaluating in a tight loop would
/// contend for the context's lines like one more worker, which the
/// paper's 50 ms monitoring rate never does. Returns wall nanoseconds
/// per create+destroy cycle.
ContendedResult contendedMonitoringCost(
    size_t Threads, size_t PerThread,
    const std::shared_ptr<const PerformanceModel> &M) {
  ContextOptions Options;
  Options.WindowSize = 64;
  Options.FinishedRatio = 0.5;
  Options.LogEvents = false;
  ListContext<int64_t> Ctx("fig7:contended", ListVariant::ArrayList, M,
                           SelectionRule::impossibleRule(), Options);

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
  while (Ready.load() != Threads) {
  }
  Timer Clock;
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  double Nanos = static_cast<double>(Clock.elapsedNanos());

  ContendedResult R;
  R.Threads = Threads;
  R.Instances = Ctx.instancesCreated();
  R.Monitored = Ctx.instancesMonitored();
  R.Rounds = Ctx.evaluationCount();
  R.NanosPerInstance = Nanos / static_cast<double>(R.Instances);
  return R;
}

struct RecordResult {
  size_t Threads = 0;
  uint64_t Recorded = 0;
  uint64_t Dropped = 0;
  uint64_t Drained = 0;
  double NanosPerRecord = 0.0;
};

/// Hammers a private EventLog with record() calls (pre-interned ids —
/// the evaluation-path shape) from \p Threads threads while one drainer
/// keeps consuming, and returns wall nanoseconds per record() call.
RecordResult contendedRecordCost(size_t Threads, size_t PerThread) {
  EventLog Log(1 << 16);
  uint32_t Ctx = Log.intern("fig7:telemetry");
  uint32_t Detail = Log.intern("record-bench");

  std::atomic<bool> Stop{false};
  std::atomic<size_t> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Log, &Ready, &Go, PerThread, Ctx, Detail] {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire)) {
      }
      for (size_t I = 0; I != PerThread; ++I)
        Log.record(EventKind::MonitoringRound, Ctx, Detail);
    });
  }
  std::atomic<uint64_t> Drained{0};
  std::thread Drainer([&Log, &Stop, &Drained] {
    while (!Stop.load(std::memory_order_relaxed)) {
      Drained.fetch_add(Log.drain().size(), std::memory_order_relaxed);
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
  Drainer.join();

  RecordResult R;
  R.Threads = Threads;
  R.Recorded = Log.totalRecorded();
  R.Dropped = Log.droppedCount();
  R.Drained = Drained.load(std::memory_order_relaxed);
  R.NanosPerRecord = Nanos / static_cast<double>(Threads * PerThread);
  return R;
}

const char *jsonPath(int Argc, char **Argv) {
  if (hasFlag(Argc, Argv, "--no-json"))
    return nullptr;
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--json") == 0)
      return Argv[I + 1];
  return "BENCH_overhead.json";
}

const char *telemetryJsonPath(int Argc, char **Argv) {
  if (hasFlag(Argc, Argv, "--no-json"))
    return nullptr;
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--telemetry-json") == 0)
      return Argv[I + 1];
  return "BENCH_telemetry.json";
}

} // namespace

int main(int Argc, char **Argv) {
  std::shared_ptr<const PerformanceModel> Model = loadModel();

  std::printf("\nFigure 7: analysis overhead per monitored collection vs "
              "window size\n");
  std::printf("%10s  %18s\n", "window", "ns per collection");
  std::vector<std::pair<size_t, double>> AnalysisRows;
  for (size_t Window : {100u, 300u, 1000u, 3000u, 10000u, 30000u,
                        100000u}) {
    // Median-of-5 to tame timer noise on the small windows.
    std::vector<double> Reps;
    for (int R = 0; R != 5; ++R)
      Reps.push_back(analysisNanosPerCollection(Window, Model));
    std::sort(Reps.begin(), Reps.end());
    AnalysisRows.emplace_back(Window, Reps[2]);
    std::printf("%10zu  %18.1f\n", Window, Reps[2]);
  }
  std::printf("\n(paper Fig. 7: 250-285 ns per collection, roughly flat; "
              "absolute values are machine- and layout-specific)\n");

  size_t PerThread = static_cast<size_t>(
      std::max(intOption(Argc, Argv, "--instances", 200000), 8L));
  std::vector<size_t> Sweep = threadSweep(Argc, Argv);
  std::printf("\nContended monitoring fast path: ns per monitored "
              "create+destroy cycle\n");
  std::printf("(topology: %s)\n", topologyJson().c_str());
  std::printf("%8s  %12s  %12s  %12s  %12s  %10s  %8s\n", "threads",
              "ns/instance", "baseline", "shared-line", "overhead",
              "monitored", "rounds");
  // Alternating repeats: every rep measures each thread count's
  // monitored, bare and shared-line cycles back to back, so a host
  // phase (steal, a noisy neighbour, a throttled cpu set) lands on every
  // arm of that rep alike; medians over reps then drop the outliers.
  // Per-thread counts shrink as threads go up so total work stays
  // comparable.
  constexpr int ContendedReps = 15;
  std::vector<std::vector<ContendedResult>> Monitored(Sweep.size());
  for (int R = 0; R != ContendedReps; ++R) {
    for (size_t I = 0; I != Sweep.size(); ++I) {
      size_t Threads = Sweep[I];
      size_t Per = std::max<size_t>(PerThread / Threads, 64);
      ContendedResult Rep = contendedMonitoringCost(Threads, Per, Model);
      Rep.BaselineNanos = bareCycleCost(Threads, Per, false);
      Rep.SharedLineNanos = bareCycleCost(Threads, Per, true);
      Monitored[I].push_back(Rep);
    }
  }
  auto MedianOf = [&](size_t I, double ContendedResult::*Field) {
    std::vector<double> Values;
    for (const ContendedResult &Rep : Monitored[I])
      Values.push_back(Rep.*Field);
    return median(std::move(Values));
  };
  std::vector<ContendedResult> Contended;
  for (size_t I = 0; I != Sweep.size(); ++I) {
    std::vector<ContendedResult> Sorted = Monitored[I];
    std::sort(Sorted.begin(), Sorted.end(),
              [](const ContendedResult &A, const ContendedResult &B) {
                return A.NanosPerInstance < B.NanosPerInstance;
              });
    ContendedResult Median = Sorted[ContendedReps / 2];
    Median.BaselineNanos = MedianOf(I, &ContendedResult::BaselineNanos);
    Median.SharedLineNanos = MedianOf(I, &ContendedResult::SharedLineNanos);
    Contended.push_back(Median);
    std::printf("%8zu  %12.1f  %12.1f  %12.1f  %12.1f  %10llu  %8llu\n",
                Sweep[I], Median.NanosPerInstance, Median.BaselineNanos,
                Median.SharedLineNanos,
                Median.NanosPerInstance - Median.BaselineNanos,
                static_cast<unsigned long long>(Median.Monitored),
                static_cast<unsigned long long>(Median.Rounds));
  }

  std::printf("\nTelemetry ring: contended EventLog::record() cost\n");
  std::printf("%8s  %12s  %12s  %12s\n", "threads", "ns/record",
              "recorded", "dropped");
  std::vector<RecordResult> Records;
  for (size_t Threads : Sweep) {
    std::vector<RecordResult> Reps;
    size_t Per = std::max<size_t>(PerThread / Threads, 64);
    for (int R = 0; R != 9; ++R)
      Reps.push_back(contendedRecordCost(Threads, Per));
    std::sort(Reps.begin(), Reps.end(),
              [](const RecordResult &A, const RecordResult &B) {
                return A.NanosPerRecord < B.NanosPerRecord;
              });
    RecordResult Median = Reps[4];
    Records.push_back(Median);
    std::printf("%8zu  %12.1f  %12llu  %12llu\n", Threads,
                Median.NanosPerRecord,
                static_cast<unsigned long long>(Median.Recorded),
                static_cast<unsigned long long>(Median.Dropped));
  }

  if (const char *Path = jsonPath(Argc, Argv)) {
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path);
      return 1;
    }
    std::fprintf(F, "{\n  \"bench\": \"fig7_overhead\",\n");
    std::fprintf(F, "  \"topology\": %s,\n", topologyJson().c_str());
    std::fprintf(F, "  \"analysis_ns_per_collection\": [\n");
    for (size_t I = 0; I != AnalysisRows.size(); ++I)
      std::fprintf(F, "    {\"window\": %zu, \"ns\": %.1f}%s\n",
                   AnalysisRows[I].first, AnalysisRows[I].second,
                   I + 1 == AnalysisRows.size() ? "" : ",");
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"contended_monitoring\": [\n");
    for (size_t I = 0; I != Contended.size(); ++I) {
      const ContendedResult &R = Contended[I];
      std::fprintf(F,
                   "    {\"threads\": %zu, \"ns_per_instance\": %.1f, "
                   "\"baseline_ns\": %.1f, \"shared_line_ns\": %.1f, "
                   "\"monitoring_overhead_ns\": %.1f, "
                   "\"instances\": %llu, \"monitored\": %llu, "
                   "\"rounds\": %llu}%s\n",
                   R.Threads, R.NanosPerInstance, R.BaselineNanos,
                   R.SharedLineNanos, R.NanosPerInstance - R.BaselineNanos,
                   static_cast<unsigned long long>(R.Instances),
                   static_cast<unsigned long long>(R.Monitored),
                   static_cast<unsigned long long>(R.Rounds),
                   I + 1 == Contended.size() ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("\n[wrote %s]\n", Path);
  }

  if (const char *Path = telemetryJsonPath(Argc, Argv)) {
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path);
      return 1;
    }
    std::fprintf(F, "{\n  \"bench\": \"telemetry_record\",\n");
    std::fprintf(F, "  \"record_ns_per_op\": [\n");
    for (size_t I = 0; I != Records.size(); ++I) {
      const RecordResult &R = Records[I];
      std::fprintf(F,
                   "    {\"threads\": %zu, \"ns\": %.1f, "
                   "\"recorded\": %llu, \"dropped\": %llu, "
                   "\"drained\": %llu}%s\n",
                   R.Threads, R.NanosPerRecord,
                   static_cast<unsigned long long>(R.Recorded),
                   static_cast<unsigned long long>(R.Dropped),
                   static_cast<unsigned long long>(R.Drained),
                   I + 1 == Records.size() ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("[wrote %s]\n", Path);
  }

  if (hasFlag(Argc, Argv, "--check-scaling")) {
    // CI smoke gate: sharing one context across threads may cost at
    // most 1.30x a bare cycle that writes one shared cache line. The
    // context's creation counter is the one write every creating thread
    // must share, so the two scale alike; a change that adds a contended
    // write to the fast path pushes the ratio towards 2. The ratio is
    // taken per rep, between cycles measured back to back, and each
    // thread count reads its median over reps; at the default
    // --instances (200000) it holds within a few percent run to run.
    // Thread counts above the cpu count are left out: there a worker
    // preempted inside evaluate() stalls the others on its mutex, which
    // measures the scheduler, not the fast path.
    constexpr double Limit = 1.30;
    const size_t Cpus = std::max(1u, std::thread::hardware_concurrency());
    bool Failed = false;
    for (size_t I = 0; I != Sweep.size(); ++I) {
      if (Sweep[I] < 2 || Sweep[I] > Cpus)
        continue;
      std::vector<double> Ratios;
      for (const ContendedResult &Rep : Monitored[I])
        Ratios.push_back(Rep.NanosPerInstance / Rep.SharedLineNanos);
      double Ratio = median(std::move(Ratios));
      bool Over = Ratio > Limit;
      Failed |= Over;
      std::printf("[check-scaling] %zu threads: monitored cycle %.2fx the "
                  "shared-line cycle (limit %.2fx)%s\n",
                  Sweep[I], Ratio, Limit, Over ? "  FAIL" : "");
    }
    if (Failed) {
      std::fprintf(stderr, "FAIL: the contended monitored cycle scales "
                           "worse than one shared-counter write\n");
      return 1;
    }
  }
  return 0;
}

//===- server_scaling.cpp - Session-server contention sweep --------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Scaling study of the concurrent collection tier (DESIGN.md §11) on
// the multi-tenant session-server scenario (src/apps/SessionServer.h).
// For every point of the thread ladder it runs the scenario three ways:
//
//   mutex    the hot collections pinned to the mutex-serialized tier,
//   sharded  pinned to the lock-striped/copy-on-write tier,
//   auto     the engine free to pick — it starts mutex-serialized and
//            must discover the striping from the observed contention.
//
// The acceptance bar (`--check`): the auto run switches the hot cache
// map from MutexHashMap to ShardedHashMap at every multi-threaded
// point, and the sharded pin beats the mutex pin by >= 2x throughput
// at 8+ threads.
//
// Emits BENCH_server.json (schema cswitch-server-v1), with a host
// record: cpus, NUMA nodes, and the stripe counts the run resolved.
//
// Usage: server_scaling [--ops N] [--epochs N] [--tenants N]
//                       [--max-threads N] [--shards N] [--json <path>]
//                       [--check] [--check-switch]
//
// --shards sets ContentionPolicy::Shards for the striped variants
// (default 0 = auto, 64 shards); a 4/16/64 series is the shard sweep.
//
// --check-switch gates only the strategy-switch half (for CI smoke on
// small runners, where the throughput ratio is scheduling noise).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "apps/SessionServer.h"
#include "collections/concurrent/Sharding.h"
#include "core/Switch.h"
#include "support/MetricsExport.h"
#include "support/Topology.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

/// One (thread-count, mode) measurement.
struct Point {
  size_t Threads = 0;
  Concurrency Mode = Concurrency::Auto;
  ServerRunResult Result;
};

std::string trailJson(const std::vector<std::string> &Trail) {
  std::string Out = "[";
  for (size_t I = 0; I != Trail.size(); ++I) {
    Out += '"';
    Out += Trail[I];
    Out += '"';
    if (I + 1 != Trail.size())
      Out += ", ";
  }
  Out += ']';
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = stringOption(Argc, Argv, "--json",
                                      "BENCH_server.json");
  bool Check = hasFlag(Argc, Argv, "--check");

  ServerRunConfig Base;
  Base.OpsPerThread =
      static_cast<size_t>(intOption(Argc, Argv, "--ops", 20000));
  Base.Epochs = static_cast<size_t>(intOption(Argc, Argv, "--epochs", 8));
  Base.Tenants = static_cast<size_t>(intOption(Argc, Argv, "--tenants", 4));
  Base.Seed = static_cast<uint64_t>(intOption(Argc, Argv, "--seed", 17));
  ContentionPolicy Policy = AdaptiveConfig::global().contention();
  Policy.Shards = static_cast<size_t>(intOption(Argc, Argv, "--shards", 0));
  AdaptiveConfig::global().setContention(Policy);
  size_t Shards = concurrent::configuredShardCount();

  Switch::setModel(loadModel());
  std::vector<size_t> Sweep = threadSweep(Argc, Argv);

  std::printf("\nSession-server scaling: %zu tenants, %zu ops/thread x %zu "
              "epochs, Zipf %.2f, %zu shards\n",
              Base.Tenants, Base.OpsPerThread, Base.Epochs, Base.ZipfSkew,
              Shards);
  std::printf("%7s | %12s %12s %7s | %12s %-14s %3s %8s\n", "threads",
              "mutex op/s", "sharded op/s", "ratio", "auto op/s",
              "auto variant", "sw", "est.thr");

  const Concurrency Modes[] = {Concurrency::Mutex, Concurrency::Sharded,
                               Concurrency::Auto};
  std::vector<Point> Points;
  for (size_t Threads : Sweep) {
    double Ops[3] = {0, 0, 0};
    const ServerRunResult *Auto = nullptr;
    for (size_t M = 0; M != 3; ++M) {
      ServerRunConfig Config = Base;
      Config.Threads = Threads;
      Config.Mode = Modes[M];
      Point P;
      P.Threads = Threads;
      P.Mode = Modes[M];
      P.Result = runSessionServerSim(Config);
      Ops[M] = P.Result.OpsPerSecond;
      Points.push_back(std::move(P));
      if (Modes[M] == Concurrency::Auto)
        Auto = &Points.back().Result;
      if (hasFlag(Argc, Argv, "--verbose")) {
        const EngineStats &S = Points.back().Result.Stats;
        std::printf("  [%s t=%zu: created %llu monitored %llu published "
                    "%llu discarded %llu evals %llu switches %llu]\n",
                    concurrencyName(Modes[M]), Threads,
                    (unsigned long long)S.InstancesCreated,
                    (unsigned long long)S.InstancesMonitored,
                    (unsigned long long)S.ProfilesPublished,
                    (unsigned long long)S.ProfilesDiscarded,
                    (unsigned long long)S.Evaluations,
                    (unsigned long long)S.Switches);
      }
    }
    std::printf("%7zu | %12.0f %12.0f %6.2fx | %12.0f %-14s %3zu %8.1f\n",
                Threads, Ops[0], Ops[1], Ops[0] > 0 ? Ops[1] / Ops[0] : 0.0,
                Ops[2], Auto->CacheVariant.c_str(), Auto->CacheSwitches,
                Auto->ContendedThreads);
  }

  // Acceptance: the auto run discovers the striping wherever threads
  // actually contend, and the striping is worth >= 2x at 8+ threads.
  bool AutoSwitches = true;
  bool ShardedWins = true;
  size_t MultiThreadPoints = 0;
  size_t HighContentionPoints = 0;
  for (size_t I = 0; I + 2 < Points.size(); I += 3) {
    const ServerRunResult &Mutex = Points[I].Result;
    const ServerRunResult &Sharded = Points[I + 1].Result;
    const ServerRunResult &Auto = Points[I + 2].Result;
    size_t Threads = Points[I].Threads;
    if (Threads >= 2) {
      ++MultiThreadPoints;
      if (Auto.CacheSwitches < 1 || Auto.CacheVariant != "ShardedHashMap")
        AutoSwitches = false;
    }
    if (Threads >= 8) {
      ++HighContentionPoints;
      if (Sharded.OpsPerSecond < 2.0 * Mutex.OpsPerSecond)
        ShardedWins = false;
    }
  }

  // The throughput half of the acceptance bar needs hardware that can
  // actually run 2+ threads in parallel: on a single-CPU box every mode
  // serializes on the one core (and an uncontended lock handoff is
  // cheap), so pinned-mutex and pinned-sharded throughput converge no
  // matter how good the striping is. The switch half is hardware-
  // independent — the contention estimate and the cost model drive it.
  size_t HardwareThreads = std::thread::hardware_concurrency();
  bool ParallelHardware = HardwareThreads >= 2;

  std::string Json = "{\n  \"schema\": \"cswitch-server-v1\",\n";
  Json += "  \"hardware_threads\": " + std::to_string(HardwareThreads) +
          ",\n";
  const Topology &Topo = Topology::system();
  Json += "  \"host\": {\"cpus\": " + std::to_string(Topo.cpuCount()) +
          ", \"numa_nodes\": " + std::to_string(Topo.nodeCount()) +
          ", \"synthetic_nodes\": " + (Topo.synthetic() ? "true" : "false") +
          ", \"shards\": " + std::to_string(Shards) +
          ", \"profile_stripes\": " + std::to_string(resolveCpuStripes(0)) +
          "},\n";
  Json += "  \"tenants\": " + std::to_string(Base.Tenants) + ",\n";
  Json += "  \"ops_per_thread\": " + std::to_string(Base.OpsPerThread) +
          ",\n";
  Json += "  \"epochs\": " + std::to_string(Base.Epochs) + ",\n";
  Json += "  \"points\": [\n";
  for (size_t I = 0; I + 2 < Points.size(); I += 3) {
    const ServerRunResult &Mutex = Points[I].Result;
    const ServerRunResult &Sharded = Points[I + 1].Result;
    const ServerRunResult &Auto = Points[I + 2].Result;
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "    {\"threads\": %zu, \"mutex_ops_per_sec\": %.0f, "
        "\"sharded_ops_per_sec\": %.0f, \"sharded_speedup\": %.2f, "
        "\"auto_ops_per_sec\": %.0f, \"auto_final_variant\": \"%s\", "
        "\"auto_switches\": %zu, \"auto_contended_threads\": %.2f, "
        "\"auto_variant_trail\": ",
        Points[I].Threads, Mutex.OpsPerSecond, Sharded.OpsPerSecond,
        Mutex.OpsPerSecond > 0
            ? Sharded.OpsPerSecond / Mutex.OpsPerSecond
            : 0.0,
        Auto.OpsPerSecond, Auto.CacheVariant.c_str(), Auto.CacheSwitches,
        Auto.ContendedThreads);
    Json += Buf;
    Json += trailJson(Auto.CacheVariantTrail);
    Json += I + 3 >= Points.size() ? "}\n" : "},\n";
  }
  Json += "  ],\n";
  Json += std::string("  \"auto_switches_to_sharded\": ") +
          (AutoSwitches && MultiThreadPoints > 0 ? "true" : "false") + ",\n";
  Json += std::string("  \"sharded_2x_at_8_threads\": ") +
          (ShardedWins && HighContentionPoints > 0 ? "true" : "false") +
          "\n}\n";
  if (writeTextFile(JsonPath, Json))
    std::printf("[wrote %s]\n", JsonPath);
  else
    std::fprintf(stderr, "[failed to write %s]\n", JsonPath);

  bool CheckSwitch = hasFlag(Argc, Argv, "--check-switch");
  if (Check || CheckSwitch) {
    bool SwitchPass = AutoSwitches && MultiThreadPoints > 0;
    if (CheckSwitch && !Check) {
      std::printf("[check-switch %s: auto switch %s over %zu multi-thread "
                  "points]\n",
                  SwitchPass ? "passed" : "FAILED",
                  AutoSwitches ? "ok" : "MISSED", MultiThreadPoints);
      return SwitchPass ? 0 : 1;
    }
    bool ThroughputPass =
        !ParallelHardware || (ShardedWins && HighContentionPoints > 0);
    bool Pass = SwitchPass && ThroughputPass;
    std::printf("[check %s: auto switch %s over %zu multi-thread points, "
                "sharded >=2x %s over %zu 8+-thread points%s]\n",
                Pass ? "passed" : "FAILED", AutoSwitches ? "ok" : "MISSED",
                MultiThreadPoints, ShardedWins ? "ok" : "MISSED",
                HighContentionPoints,
                ParallelHardware
                    ? ""
                    : " (single-CPU box: throughput bar not applicable)");
    return Pass ? 0 : 1;
  }
  return 0;
}

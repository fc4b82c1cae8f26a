//===- cswitch_benchmark.cpp - The repository benchmark -------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// One workload per process:
//
//   cswitch_benchmark --workload <name> [--seed N] [--seconds S]
//                     [--model data/cswitch_model.txt] [--golden FILE]
//                     [--json out.json] [--trace trace.json]
//   cswitch_benchmark --smoke [--model ...] [--golden FILE]
//   cswitch_benchmark --print-golden [--model ...]
//
// Workloads: dacapo_rtime, dacapo_monitor_only, op_stream,
// session_server (README.md says why each was chosen). Without --trace
// the run prints every end-to-end metric as `<name> <value> <unit>`;
// with --trace half of the budget runs the workload with every other
// batch traced and half runs the layer probe, the per-layer metrics
// are printed and the spans are written as Chrome-trace JSON. The last
// line of standard output is the result:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The benchmark writes only the files it is given (--json, --trace).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/Apps.h"
#include "apps/SessionServer.h"
#include "model/DefaultModel.h"
#include "obs/Profiling.h"
#include "obs/Provenance.h"
#include "support/Random.h"
#include "support/Topology.h"

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

using namespace cswitch;
using namespace cswitch::suite;

namespace {

/// Distinct inputs per app and seed, cycled by round. Odd, so rounds
/// alternating tracing (period 2) and run order (period 4) give every
/// input both sides.
constexpr size_t AppInputs = 5;
constexpr size_t AppWarmupRounds = 2;
constexpr size_t MinAppRounds = 4;
constexpr size_t MinServerRuns = 6;
constexpr size_t ServerWarmupRuns = 6;
constexpr size_t SpanCapacity = size_t(1) << 19;

const char *const OriginalSpans[NumAppKinds] = {
    "apps.avrora.original", "apps.bloat.original", "apps.fop.original",
    "apps.h2.original", "apps.lusearch.original"};
const char *const FrameworkSpans[NumAppKinds] = {
    "apps.avrora.framework", "apps.bloat.framework", "apps.fop.framework",
    "apps.h2.framework", "apps.lusearch.framework"};

/// Load threads: at most min(nproc, 4).
size_t workerThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// Peak resident set of this program image (VmHWM; getrusage's
/// ru_maxrss would also count the parent's footprint before exec).
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0.0;
}

/// (steal, total) jiffies of the whole machine from /proc/stat: steal
/// is time the hypervisor ran something else on our virtual cpus.
std::pair<double, double> cpuJiffies() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  double Steal = 0.0, Total = 0.0, Field = 0.0;
  Stat >> Cpu;
  for (int I = 0; I < 8 && Stat >> Field; ++I) {
    Total += Field;
    if (I == 7)
      Steal = Field;
  }
  return {Steal, Total};
}

} // namespace

uint64_t cswitch::suite::deriveSeed(uint64_t Seed, uint64_t Index) {
  SplitMix64 Rng(Seed ^ (Index * 0x9e3779b97f4a7c15ULL));
  return Rng.next();
}

std::shared_ptr<const PerformanceModel>
cswitch::suite::loadPinnedModel(const std::string &Path) {
  auto Model = std::make_shared<PerformanceModel>();
  std::string Error;
  if (!Model->loadFromFile(Path, &Error)) {
    std::fprintf(stderr, "error: cannot load model '%s': %s\n", Path.c_str(),
                 Error.c_str());
    std::exit(2);
  }
  augmentConcurrentCoverage(*Model);
  for (AbstractionKind Kind :
       {AbstractionKind::List, AbstractionKind::Set, AbstractionKind::Map})
    for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
      if (!Model->hasVariant({Kind, V})) {
        std::fprintf(stderr, "error: model '%s' lacks variant %s\n",
                     Path.c_str(), VariantId{Kind, V}.name().c_str());
        std::exit(2);
      }
  return Model;
}

void SetupTimer::run(bool Keep) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  bool Pinned = false;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0 &&
      CPU_COUNT(&Allowed) > 1) {
    int Skip = static_cast<int>(Seconds.size()) % CPU_COUNT(&Allowed);
    for (int Cpu = 0; Cpu < CPU_SETSIZE && !Pinned; ++Cpu)
      if (CPU_ISSET(Cpu, &Allowed) && Skip-- == 0) {
        cpu_set_t One;
        CPU_ZERO(&One);
        CPU_SET(Cpu, &One);
        Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
      }
  }
  double Begin = nowSeconds();
  Setup(Keep);
  Seconds.push_back(nowSeconds() - Begin);
  if (Pinned)
    sched_setaffinity(0, sizeof(Allowed), &Allowed);
}

//===----------------------------------------------------------------------===//
// dacapo_rtime / dacapo_monitor_only
//===----------------------------------------------------------------------===//

void cswitch::suite::runDacapo(const RunContext &Ctx, bool MonitorOnly,
                               Report &R) {
  std::shared_ptr<const PerformanceModel> Model;
  SetupTimer Setup(Ctx, [&](bool Keep) {
    auto Loaded = loadPinnedModel(Ctx.ModelPath);
    if (Keep)
      Model = std::move(Loaded);
  });
  AppRunConfig Base;
  Base.Model = Model;
  Base.Scale = 1.0;
  Base.Rule = MonitorOnly ? SelectionRule::impossibleRule()
                          : SelectionRule::timeRule();

  struct AppSeries {
    /// Untraced pairs (Original times grouped by input; Ratios:
    /// framework / Original of each pair), and the ratios of traced
    /// pairs.
    std::vector<std::vector<double>> OriginalMs =
        std::vector<std::vector<double>>(AppInputs);
    std::vector<double> FrameworkMs, Ratios, TracedRatios;
    /// Per input, from its first measured framework run (runs are
    /// deterministic, so these repeat exactly).
    std::vector<double> PeakKb, Switches;
  };
  std::array<AppSeries, NumAppKinds> Series;
  EngineStats Monitoring, FirstRound;

  auto runRound = [&](size_t Round, bool Measured) {
    size_t Input = Round % AppInputs;
    bool Traced = Measured && Ctx.Log && (Round & 1);
    bool OriginalFirst = (Round >> 1) & 1;
    SpanLog *Log = Traced ? Ctx.Log : nullptr;
    ScopedSpan RoundSpan(Log, "batch");
    for (AppKind App : AllAppKinds) {
      size_t A = static_cast<size_t>(App);
      AppRunConfig Run = Base;
      Run.Seed = deriveSeed(Ctx.Seed, Input);
      AppResult Original, Framework;
      auto runOriginal = [&] {
        Run.Config = AppConfig::Original;
        ScopedSpan Span(Log, OriginalSpans[A]);
        Original = runApp(App, Run);
      };
      auto runFramework = [&] {
        Run.Config = AppConfig::FullAdap;
        ScopedSpan Span(Log, FrameworkSpans[A]);
        Framework = runApp(App, Run);
      };
      if (OriginalFirst) {
        runOriginal();
        runFramework();
      } else {
        runFramework();
        runOriginal();
      }
      R.check(Framework.Checksum == Original.Checksum,
              "dacapo framework checksum equals the round's Original");
      if (!Ctx.Golden.empty()) {
        auto It = Ctx.Golden.find(std::string(appKindName(App)) + "/" +
                                  std::to_string(Input));
        R.check(It != Ctx.Golden.end() && It->second == Original.Checksum,
                "dacapo checksum equals the golden value");
      }
      if (MonitorOnly)
        R.check(Framework.Transitions == 0,
                "the impossible rule never switches");
      if (!Measured)
        continue;
      AppSeries &S = Series[A];
      double Ratio = Framework.Seconds / Original.Seconds;
      if (Traced) {
        S.TracedRatios.push_back(Ratio);
      } else {
        S.OriginalMs[Input].push_back(Original.Seconds * 1e3);
        S.FrameworkMs.push_back(Framework.Seconds * 1e3);
        S.Ratios.push_back(Ratio);
      }
      Monitoring += Framework.Stats;
      if (Round < AppInputs) {
        S.PeakKb.push_back(double(Framework.PeakLiveBytes) / 1024.0);
        S.Switches.push_back(double(Framework.Transitions));
      }
      if (Round == 0)
        FirstRound += Framework.Stats;
    }
  };

  for (size_t Round = 0; Round != AppWarmupRounds; ++Round)
    runRound(Round, false);
  double Deadline = nowSeconds() + Ctx.Seconds;
  size_t Rounds = 0;
  for (; Rounds < MinAppRounds || nowSeconds() < Deadline; ++Rounds) {
    Setup.tick();
    runRound(Rounds, true);
  }
  R.metric("setup_s", Setup.finish(), "s");

  // batch_ms is the geomean over apps of each app's uncontended
  // framework run; the tail pools every app's pair ratios, each relative
  // to its app's median, so all apps' runs count towards the 90th
  // percentile.
  std::vector<double> Ms, Gain, Relative, RawMedian, RawP90, TraceRatio,
      PeakKb;
  for (AppKind App : AllAppKinds) {
    const AppSeries &S = Series[static_cast<size_t>(App)];
    std::string Prefix = std::string("apps.") + appKindName(App);
    double OriginalMs = uncontendedMs(S.OriginalMs);
    Ms.push_back(OriginalMs * median(S.Ratios));
    Gain.push_back(1.0 / median(S.Ratios));
    for (double Rel : relativeToMedian(S.Ratios))
      Relative.push_back(Rel);
    RawMedian.push_back(median(S.FrameworkMs));
    RawP90.push_back(quantile(S.FrameworkMs, 0.9));
    PeakKb.push_back(median(S.PeakKb));
    if (Ctx.Log)
      TraceRatio.push_back(median(S.TracedRatios) / median(S.Ratios));
    R.extra(Prefix + ".ms", Ms.back(), "ms");
    R.extra(Prefix + ".original_ms", OriginalMs, "ms");
    R.extra(Prefix + ".gain", Gain.back(), "ratio");
    R.extra(Prefix + ".peak_kb", PeakKb.back(), "KB");
    R.extra(Prefix + ".switches", median(S.Switches), "count");
    R.extra(Prefix + ".pairs", double(S.Ratios.size()), "count");
  }
  double BatchMs = geomean(Ms);
  R.metric("batch_ms", BatchMs, "ms");
  R.metric("batch_p90_ms", BatchMs * quantile(Relative, 0.9), "ms");
  R.metric("gain_vs_original", geomean(Gain), "ratio");
  R.metric("core.evaluations", double(FirstRound.Evaluations), "count");
  R.metric("core.switches", double(FirstRound.Switches), "count");
  R.metric("core.publish_ratio",
           ratio(Monitoring.ProfilesPublished, Monitoring.InstancesMonitored),
           "ratio");
  if (Ctx.Log)
    R.metric("trace.overhead", geomean(TraceRatio), "ratio");
  R.extra("engine.instances_created", double(Monitoring.InstancesCreated),
          "count");
  R.extra("engine.instances_monitored",
          double(Monitoring.InstancesMonitored), "count");
  R.extra("engine.profiles_published", double(Monitoring.ProfilesPublished),
          "count");
  R.extra("engine.profiles_discarded", double(Monitoring.ProfilesDiscarded),
          "count");
  R.extra("engine.evaluations", double(Monitoring.Evaluations), "count");
  R.extra("engine.switches", double(Monitoring.Switches), "count");
  R.extra("dacapo.raw_median_ms", geomean(RawMedian), "ms");
  R.extra("dacapo.raw_p90_ms", geomean(RawP90), "ms");
  R.extra("dacapo.peak_kb", geomean(PeakKb), "KB");
  R.extra("dacapo.rounds", double(Rounds), "count");
}

//===----------------------------------------------------------------------===//
// session_server
//===----------------------------------------------------------------------===//

void cswitch::suite::runSessionServer(const RunContext &Ctx, Report &R) {
  SetupTimer Setup(Ctx, [&](bool Keep) {
    auto Loaded = loadPinnedModel(Ctx.ModelPath);
    if (Keep)
      Switch::setModel(std::move(Loaded));
  });
  ServerRunConfig Base;
  Base.Threads = workerThreads();
  Base.Tenants = 4;
  Base.ZipfSkew = 0.99;
  // Short runs (about 40 ms contended on 4 threads) give a run enough
  // pairs for batch_p90_ms to have ten samples beyond it.
  Base.OpsPerThread = 5000;
  Base.Epochs = 8;
  Base.Seed = deriveSeed(Ctx.Seed, 0);
  const uint64_t ExpectedOps =
      uint64_t(Base.Threads) * Base.OpsPerThread * Base.Epochs;

  // Auto against the pinned mutex strategy (the unmodified program's
  // fixed synchronized map); traced runs add the pinned sharded one.
  std::vector<Concurrency> Modes = {Concurrency::Auto, Concurrency::Mutex};
  if (Ctx.Log)
    Modes.push_back(Concurrency::Sharded);
  // Ratios: Auto / Mutex run time of each untraced run pair.
  std::map<Concurrency, std::vector<double>> OpsPerS;
  std::vector<double> AutoMs, Ratios, TracedRatios, Threads;
  EngineStats Monitoring, FirstAuto;
  std::string FinalVariant;

  auto runOnce = [&](Concurrency Mode, SpanLog *Log) {
    ServerRunConfig Config = Base;
    Config.Mode = Mode;
    ScopedSpan Span(Log, Mode == Concurrency::Auto    ? "apps.session.auto"
                         : Mode == Concurrency::Mutex ? "apps.session.mutex"
                                                      : "apps.session.sharded");
    ServerRunResult Result = runSessionServerSim(Config);
    R.check(Result.Operations == ExpectedOps,
            "session server performed threads x ops x epochs operations");
    MapVariant Final;
    R.check(parseMapVariant(Result.CacheVariant, Final) &&
                isConcurrentVariant(AbstractionKind::Map,
                                    static_cast<unsigned>(Final)),
            "session cache ends on a concurrent-tier variant");
    return Result;
  };

  for (size_t Run = 0; Run != ServerWarmupRuns; ++Run)
    for (Concurrency Mode : Modes)
      runOnce(Mode, nullptr);
  double Deadline = nowSeconds() + Ctx.Seconds;
  for (size_t Run = 0; Run < MinServerRuns || nowSeconds() < Deadline; ++Run) {
    Setup.tick();
    bool Traced = Ctx.Log && (Run & 1);
    SpanLog *Log = Traced ? Ctx.Log : nullptr;
    ScopedSpan Batch(Log, "batch");
    std::map<Concurrency, ServerRunResult> Results;
    for (size_t J = 0; J != Modes.size(); ++J) {
      Concurrency Mode = Modes[(Run / 2 + J) % Modes.size()];
      Results[Mode] = runOnce(Mode, Log);
    }
    const ServerRunResult &Auto = Results[Concurrency::Auto];
    double Ratio = Auto.Seconds / Results[Concurrency::Mutex].Seconds;
    if (Traced) {
      TracedRatios.push_back(Ratio);
    } else {
      AutoMs.push_back(Auto.Seconds * 1e3);
      Ratios.push_back(Ratio);
    }
    for (const auto &[Mode, Result] : Results)
      OpsPerS[Mode].push_back(Result.OpsPerSecond);
    Threads.push_back(Auto.ContendedThreads);
    Monitoring += Auto.Stats;
    if (Run == 0)
      FirstAuto = Auto.Stats;
    FinalVariant = Auto.CacheVariant;
  }

  R.metric("setup_s", Setup.finish(), "s");
  // The plain median: the Original here is multi-threaded itself, and
  // its fast runs are the scheduler serializing the workers rather than
  // an uncontended machine, so uncontendedMs() does not apply.
  double BatchMs = median(AutoMs);
  R.metric("batch_ms", BatchMs, "ms");
  R.metric("batch_p90_ms", BatchMs * quantile(relativeToMedian(Ratios), 0.9),
           "ms");
  R.metric("gain_vs_original", 1.0 / median(Ratios), "ratio");
  R.metric("core.evaluations", double(FirstAuto.Evaluations), "count");
  R.metric("core.switches", double(FirstAuto.Switches), "count");
  R.metric("core.publish_ratio",
           ratio(Monitoring.ProfilesPublished, Monitoring.InstancesMonitored),
           "ratio");
  double AutoOps = median(OpsPerS[Concurrency::Auto]);
  R.extra("session.ops_per_s", AutoOps, "ops/s");
  R.extra("session.raw_p90_ms", quantile(AutoMs, 0.9), "ms");
  R.extra("session.pairs", double(AutoMs.size()), "count");
  R.extra("concurrent.mutex_ops_per_s", median(OpsPerS[Concurrency::Mutex]),
          "ops/s");
  R.extra("core.contended_threads", median(Threads), "threads");
  R.note("session.cache_variant", FinalVariant);
  R.note("session.threads", std::to_string(Base.Threads));
  if (Ctx.Log) {
    double Sharded = median(OpsPerS[Concurrency::Sharded]);
    R.extra("concurrent.sharded_ops_per_s", Sharded, "ops/s");
    R.extra("concurrent.auto_vs_best",
            AutoOps / std::max(median(OpsPerS[Concurrency::Mutex]), Sharded),
            "ratio");
    R.metric("trace.overhead", median(TracedRatios) / median(Ratios),
             "ratio");
  }
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

const std::map<std::string, std::function<void(const RunContext &, Report &)>>
    Workloads = {
        {"dacapo_rtime",
         [](const RunContext &C, Report &R) { runDacapo(C, false, R); }},
        {"dacapo_monitor_only",
         [](const RunContext &C, Report &R) { runDacapo(C, true, R); }},
        {"op_stream", runOpStream},
        {"session_server", runSessionServer},
};

/// Runs one workload (and, when traced, the layer probe) into \p R.
void runWorkload(const std::string &Name, RunContext Ctx, bool Traced,
                 const std::string &TracePath, Report &R) {
  // Pin the process-wide switches the environment could flip.
  obs::ProfilingRegistry::setEnabled(true);
  obs::ProvenanceRegistry::setEnabled(false);
  SpanLog WorkloadLog(Traced ? SpanCapacity : 0);
  SpanLog ProbeLog(Traced ? SpanCapacity : 0);
  if (Traced) {
    Ctx.Seconds /= 2;
    Ctx.Log = &WorkloadLog;
  }
  auto [StealBefore, TotalBefore] = cpuJiffies();
  Workloads.at(Name)(Ctx, R);
  auto [StealAfter, TotalAfter] = cpuJiffies();
  // The framework's own latency histograms (sampled, bucketed), as the
  // workload left them.
  EngineLatencies Latency = obs::ProfilingRegistry::global().engineLatencies();
  R.extra("obs.record_p50_ns", Latency.Record.P50, "ns");
  R.extra("obs.evaluate_p50_us", Latency.Evaluate.P50 / 1e3, "us");
  R.extra("obs.switch_p50_us", Latency.Switch.P50 / 1e3, "us");
  R.extra("machine.steal_ratio",
          TotalAfter > TotalBefore
              ? (StealAfter - StealBefore) / (TotalAfter - TotalBefore)
              : 0.0,
          "ratio");
  if (Traced) {
    Ctx.Log = &ProbeLog;
    runLayerProbe(Ctx, R);
    for (const SpanLog *Log : {&WorkloadLog, &ProbeLog})
      for (const auto &[Span, T] : Log->selfTimes()) {
        R.extra("span." + Span + ".count", double(T.Count), "count");
        R.extra("span." + Span + ".self_ms", T.SelfNs / 1e6, "ms");
      }
    R.extra("span.dropped", double(WorkloadLog.dropped() + ProbeLog.dropped()),
            "count");
    if (!TracePath.empty() &&
        !writeChromeTrace(TracePath, {&WorkloadLog, &ProbeLog})) {
      std::fprintf(stderr, "error: cannot write trace %s\n",
                   TracePath.c_str());
      std::exit(2);
    }
  }
  R.metric("peak_rss_mb", peakRssMb(), "MB");
}

std::map<std::string, uint64_t> loadGolden(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot read golden file %s\n", Path.c_str());
    std::exit(2);
  }
  std::map<std::string, uint64_t> Golden;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string App;
    size_t Input;
    uint64_t Checksum;
    if (!(Fields >> App >> Input >> Checksum)) {
      std::fprintf(stderr, "error: malformed golden line '%s'\n",
                   Line.c_str());
      std::exit(2);
    }
    Golden[App + "/" + std::to_string(Input)] = Checksum;
  }
  return Golden;
}

/// The result envelope's header fields, as JSON values.
std::map<std::string, std::string> header(const std::string &Workload,
                                          const RunContext &Ctx, bool Traced,
                                          const std::string &GitSha) {
  const Topology &Topo = Topology::system();
  return {
      {"workload", jsonString(Workload)},
      {"seed", std::to_string(Ctx.Seed)},
      {"seconds", jsonNumber(Ctx.Seconds)},
      {"traced", Traced ? "true" : "false"},
      {"git_sha", jsonString(GitSha)},
      {"build_type", jsonString(CSWITCH_BENCH_BUILD_TYPE)},
      {"compiler", jsonString(__VERSION__)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"threads", std::to_string(workerThreads())},
      {"topology", "{\"nodes\": " + std::to_string(Topo.nodeCount()) +
                       ", \"cpus\": " + std::to_string(Topo.cpuCount()) +
                       "}"},
      {"model", jsonString(Ctx.ModelPath)},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: cswitch_benchmark --workload <name> [--seed N] "
               "[--seconds S] [--model FILE] [--golden FILE] [--json FILE] "
               "[--trace FILE] [--git-sha SHA]\n"
               "       cswitch_benchmark --smoke | --print-golden\n"
               "workloads: dacapo_rtime dacapo_monitor_only op_stream "
               "session_server\n");
  return 2;
}

/// All four workloads, traced, at a tiny budget: every correctness
/// check on and every metric name present.
int smoke(RunContext Ctx) {
  Ctx.Seed = 17;
  Ctx.Seconds = 0.4;
  Ctx.SetupRepeats = 1;
  int Failures = 0;
  for (const auto &[Name, Run] : Workloads) {
    Report R;
    runWorkload(Name, Ctx, /*Traced=*/true, "", R);
    std::vector<std::string> Missing = R.missing(EndToEndMetrics);
    for (const std::string &M : R.missing(PerLayerMetrics))
      Missing.push_back(M);
    bool Ok = Missing.empty() && R.failed() == 0 && R.attempted() > 0;
    std::printf("smoke %-20s %s (%llu checks, %llu failed)\n", Name.c_str(),
                Ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(R.attempted()),
                static_cast<unsigned long long>(R.failed()));
    for (const std::string &M : Missing)
      std::printf("  missing metric %s\n", M.c_str());
    Failures += !Ok;
  }
  return Failures ? 1 : 0;
}

int printGolden(const RunContext &Ctx) {
  AppRunConfig Run;
  Run.Model = loadPinnedModel(Ctx.ModelPath);
  Run.Config = AppConfig::Original;
  std::printf("# Original checksums of the dacapo inputs of seed 17: "
              "<app> <input> <checksum>\n");
  for (AppKind App : AllAppKinds)
    for (size_t Input = 0; Input != AppInputs; ++Input) {
      Run.Seed = deriveSeed(17, Input);
      std::printf("%s %zu %" PRIu64 "\n", appKindName(App), Input,
                  runApp(App, Run).Checksum);
    }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  RunContext Ctx;
  Ctx.ModelPath = "data/cswitch_model.txt";
  std::string Workload, GoldenPath, JsonPath, TracePath, GitSha = "unknown";
  bool Smoke = false, PrintGolden = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto value = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(usage());
      }
      return Argv[++I];
    };
    if (Arg == "--workload")
      Workload = value();
    else if (Arg == "--seed")
      Ctx.Seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Ctx.Seconds = std::atof(value().c_str());
    else if (Arg == "--model")
      Ctx.ModelPath = value();
    else if (Arg == "--golden")
      GoldenPath = value();
    else if (Arg == "--json")
      JsonPath = value();
    else if (Arg == "--trace")
      TracePath = value();
    else if (Arg == "--git-sha")
      GitSha = value();
    else if (Arg == "--smoke")
      Smoke = true;
    else if (Arg == "--print-golden")
      PrintGolden = true;
    else
      return usage();
  }
  if (PrintGolden)
    return printGolden(Ctx);
  if (!GoldenPath.empty() && (Smoke || Ctx.Seed == 17))
    Ctx.Golden = loadGolden(GoldenPath);
  if (Smoke)
    return smoke(Ctx);
  if (!Workloads.count(Workload) || !(Ctx.Seconds > 0.0))
    return usage();

  bool Traced = !TracePath.empty();
  Report R;
  runWorkload(Workload, Ctx, Traced, TracePath, R);
  R.printLines();
  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << R.envelope(header(Workload, Ctx, Traced, GitSha));
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 2;
    }
  }
  const auto &Names = Traced ? PerLayerMetrics : EndToEndMetrics;
  std::vector<std::string> Missing = R.missing(Names);
  if (!Missing.empty()) {
    for (const std::string &M : Missing)
      std::fprintf(stderr, "error: metric %s was not measured\n", M.c_str());
    return 3;
  }
  std::printf("%s\n", R.resultLine(Names).c_str());
  return 0;
}

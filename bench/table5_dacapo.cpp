//===- table5_dacapo.cpp - Reproduces Table 5 -----------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The real-application evaluation (paper §5.2, Table 5): for every
// DaCapo-substitute app, the execution time T and the peak collection
// memory M of the original run are compared against the full framework
// under Rtime and Ralloc, and against instance-level adaptivity only
// (InstanceAdap). Differences are quoted only when significant (Welch's
// t-test at 5%, standing in for the paper's Tukey HSD); positive
// percentages are improvements, as in the paper.
//
// Defaults: 2 discarded + 8 measured runs at scale 0.5; `--paper` runs
// the paper's 5 + 30 at scale 1.0.
//
// Warm-start mode (`--store <file.cswitchstore>`): the selection store
// at that path is loaded before the table runs (a missing file starts
// cold), every adaptive context warm-starts from the persisted
// decisions, and the merged store is written back at the end — a
// second invocation with the same path converges with fewer switches.
//
// Recording mode (`--record <trace.optrace>`): instead of the table,
// one FullAdap Rtime run per app executes with a TraceRecorder attached
// and the combined operation trace is written for the src/replay/
// pipeline (cswitch_replay replay/simulate/info). `--apps a,b` filters
// the app set in both modes; `--sample N` traces every Nth instance.
//
// Observability mode (`--serve-metrics <port>`, 0 = ephemeral): the
// pull endpoint (Switch::serveMetrics) comes up before the table and
// stays up for `--serve-hold <seconds>` (default 30) afterwards, so
// `curl /metrics` and `cswitch_top` can observe a live run; event
// logging is forced on so /trace.json carries the decision timeline.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "apps/Apps.h"
#include "core/Switch.h"
#include "replay/TraceRecorder.h"
#include "support/EventLog.h"
#include "support/MetricsExport.h"
#include "support/Statistics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

struct RunSeries {
  std::vector<double> Seconds;
  std::vector<double> PeakMB;
  uint64_t Instances = 0;
  size_t Sites = 0;
  /// Engine-stats interval of the last measured run — the framework's
  /// own account of the monitoring work (AppResult::Stats).
  EngineStats Stats;
};

RunSeries runSeries(AppKind App, const AppRunConfig &Base, size_t Warmup,
                    size_t Measured) {
  RunSeries Series;
  for (size_t I = 0; I != Warmup + Measured; ++I) {
    AppRunConfig RC = Base;
    AppResult R = runApp(App, RC);
    if (I < Warmup)
      continue;
    Series.Seconds.push_back(R.Seconds);
    Series.PeakMB.push_back(static_cast<double>(R.PeakLiveBytes) / 1e3);
    Series.Instances = R.InstancesCreated;
    Series.Sites = R.TargetSites;
    Series.Stats = R.Stats;
  }
  return Series;
}

/// Formats a significant relative improvement as the paper does
/// (positive = better); "--" when not significant.
std::string gain(const std::vector<double> &Original,
                 const std::vector<double> &Modified) {
  ComparisonResult Cmp = compareMeans(Original, Modified);
  if (!Cmp.Significant)
    return "   --";
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%+4.0f%%", -Cmp.RelativeChange * 100.0);
  return Buf;
}

/// Parses the `--apps a,b,c` filter; all apps when absent or empty.
std::vector<AppKind> selectedApps(const char *Filter) {
  std::vector<AppKind> Apps;
  if (!Filter[0]) {
    Apps.assign(AllAppKinds.begin(), AllAppKinds.end());
    return Apps;
  }
  std::string Spec = Filter;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Name = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    for (AppKind App : AllAppKinds)
      if (Name == appKindName(App))
        Apps.push_back(App);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return Apps;
}

/// `--record` mode: one FullAdap Rtime run per app with a recorder
/// attached; writes the combined operation trace.
int recordApps(const std::vector<AppKind> &Apps, AppRunConfig Base,
               const char *Path, uint64_t SampleEvery) {
  TraceRecorder Recorder(
      TraceRecorderOptions{}.capacity(1 << 22).sampleEvery(SampleEvery));
  Base.Config = AppConfig::FullAdap;
  Base.Rule = SelectionRule::timeRule();
  Base.CtxOptions.Recorder = &Recorder;
  for (AppKind App : Apps) {
    AppResult R = runApp(App, Base);
    std::printf("[recorded %s: %.3f s, %llu instances at %zu sites]\n",
                appKindName(App), R.Seconds,
                (unsigned long long)R.InstancesCreated, R.TargetSites);
  }
  OpTrace Trace = Recorder.trace();
  std::string Error;
  if (!writeTraceToFile(Path, Trace, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Error.c_str());
    return 1;
  }
  std::printf("[wrote %s: %zu sites, %zu ops, %llu dropped, %llu/%llu "
              "instances sampled]\n",
              Path, Trace.Sites.size(), Trace.Ops.size(),
              (unsigned long long)Trace.OpsDropped,
              (unsigned long long)Trace.InstancesSampled,
              (unsigned long long)(Trace.InstancesSampled +
                                   Trace.InstancesSkipped));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Paper = hasFlag(Argc, Argv, "--paper");
  const char *TelemetryPath = stringOption(Argc, Argv, "--telemetry", "");
  const char *StorePath = stringOption(Argc, Argv, "--store", "");
  size_t Warmup = Paper ? 5 : 2;
  size_t Measured = Paper ? 30 : 10;
  double Scale = Paper ? 1.0 : 0.5;

  AppRunConfig Base;
  Base.Model = loadModel();
  Base.Seed = 17;
  Base.Scale = Scale;
  Base.CtxOptions.WindowSize = 100;
  Base.CtxOptions.FinishedRatio = 0.6;
  Base.CtxOptions.LogEvents = false;

  long ServePort = intOption(Argc, Argv, "--serve-metrics", -1);
  if (ServePort >= 0) {
    // --serve-store additionally exposes GET/POST /store on the same
    // endpoint so fleet peers (tools/cswitch_fleet, DESIGN.md §12) can
    // pull and merge this run's selection knowledge.
    if (hasFlag(Argc, Argv, "--serve-store")) {
      SwitchConfig Config;
      Config.Fleet.serveStore();
      Switch::configure(Config);
    }
    uint16_t Bound = Switch::serveMetrics(static_cast<uint16_t>(ServePort));
    if (!Bound) {
      std::fprintf(stderr, "error: cannot bind metrics port %ld\n",
                   ServePort);
      return 1;
    }
    std::printf("[serving metrics on http://127.0.0.1:%u]\n", Bound);
    std::fflush(stdout);
    // The decision-timeline export (/trace.json) draws on the event
    // ring, so a served run logs events even though the plain table
    // run keeps them off.
    Base.CtxOptions.LogEvents = true;
  }

  if (StorePath[0]) {
    if (Switch::loadStore(StorePath))
      std::printf("[selection store %s loaded; contexts warm-start]\n",
                  StorePath);
    else
      std::fprintf(stderr,
                   "[selection store %s unreadable; starting cold]\n",
                   StorePath);
    Base.CtxOptions.WarmStart = true;
  }

  std::vector<AppKind> Apps =
      selectedApps(stringOption(Argc, Argv, "--apps", ""));
  if (Apps.empty()) {
    std::fprintf(stderr, "error: --apps matched no applications\n");
    return 2;
  }
  const char *RecordPath = stringOption(Argc, Argv, "--record", "");
  if (RecordPath[0])
    return recordApps(
        Apps, Base, RecordPath,
        static_cast<uint64_t>(intOption(Argc, Argv, "--sample", 1)));

  std::printf("\nTable 5: results on the DaCapo-substitute apps "
              "(%zu+%zu runs, scale %.2f)\n",
              Warmup, Measured, Scale);
  std::printf("%-9s %6s | %8s %8s | %8s %6s %6s | %8s %6s %6s | %8s %6s "
              "%6s\n",
              "bench", "#sites", "T(s)", "M(KB)", "T1(s)", "dT1", "dM1",
              "T2(s)", "dT2", "dM2", "T3(s)", "dT3", "dM3");
  std::printf("%-9s %6s | %17s | %22s | %22s | %22s\n", "", "",
              "original", "FullAdap Rtime", "FullAdap Ralloc",
              "InstanceAdap");

  EngineStats Monitoring;
  TelemetrySnapshot Export;
  for (AppKind App : Apps) {
    AppRunConfig Original = Base;
    Original.Config = AppConfig::Original;
    RunSeries O = runSeries(App, Original, Warmup, Measured);

    AppRunConfig FullTime = Base;
    FullTime.Config = AppConfig::FullAdap;
    FullTime.Rule = SelectionRule::timeRule();
    RunSeries T1 = runSeries(App, FullTime, Warmup, Measured);

    AppRunConfig FullAlloc = Base;
    FullAlloc.Config = AppConfig::FullAdap;
    FullAlloc.Rule = SelectionRule::allocRule();
    RunSeries T2 = runSeries(App, FullAlloc, Warmup, Measured);

    AppRunConfig Instance = Base;
    Instance.Config = AppConfig::InstanceAdap;
    RunSeries T3 = runSeries(App, Instance, Warmup, Measured);

    std::printf(
        "%-9s %6zu | %8.3f %8.1f | %8.3f %6s %6s | %8.3f %6s %6s | "
        "%8.3f %6s %6s\n",
        appKindName(App), O.Sites, summarize(O.Seconds).Mean,
        summarize(O.PeakMB).Mean, summarize(T1.Seconds).Mean,
        gain(O.Seconds, T1.Seconds).c_str(),
        gain(O.PeakMB, T1.PeakMB).c_str(), summarize(T2.Seconds).Mean,
        gain(O.Seconds, T2.Seconds).c_str(),
        gain(O.PeakMB, T2.PeakMB).c_str(), summarize(T3.Seconds).Mean,
        gain(O.Seconds, T3.Seconds).c_str(),
        gain(O.PeakMB, T3.PeakMB).c_str());

    Monitoring += T1.Stats;

    // One telemetry row per app: the FullAdap Rtime interval of the
    // last measured run, aggregated over that app's contexts (the
    // contexts themselves die with the harness, so per-site rows are
    // not available after the fact).
    ContextSnapshot Row;
    Row.Name = appKindName(App);
    Row.Abstraction = "app";
    Row.Variant = "FullAdap Rtime";
    Row.Stats = T1.Stats;
    Export.Engine += T1.Stats;
    // Stats is an interval, so its context gauge diffs to zero; the
    // app's real site count is the meaningful figure here.
    Export.Engine.Contexts += T1.Sites;
    Export.Contexts.push_back(std::move(Row));
  }
  std::printf("\n(dT/dM: significant improvement vs original run; '--' = "
              "no significant difference)\n");
  std::printf("\nFullAdap Rtime monitoring account (last measured run per "
              "app, engine-stats intervals):\n"
              "  sites %llu, instances created %llu / monitored %llu, "
              "profiles published %llu / discarded %llu,\n"
              "  evaluations %llu, switches %llu\n",
              (unsigned long long)Export.Engine.Contexts,
              (unsigned long long)Monitoring.InstancesCreated,
              (unsigned long long)Monitoring.InstancesMonitored,
              (unsigned long long)Monitoring.ProfilesPublished,
              (unsigned long long)Monitoring.ProfilesDiscarded,
              (unsigned long long)Monitoring.Evaluations,
              (unsigned long long)Monitoring.Switches);

  if (StorePath[0]) {
    if (Switch::persistStore())
      std::printf("[selection store persisted to %s]\n", StorePath);
    else
      std::fprintf(stderr, "[failed to persist selection store to %s]\n",
                   StorePath);
    if (std::shared_ptr<SelectionStore> St = Switch::store())
      Export.Store = St->stats();
  }

  if (TelemetryPath[0]) {
    Export.Events.Recorded = EventLog::global().totalRecorded();
    Export.Events.Dropped = EventLog::global().droppedCount();
    if (writeTextFile(TelemetryPath, toJson(Export)))
      std::printf("[wrote telemetry snapshot to %s]\n", TelemetryPath);
    else
      std::fprintf(stderr, "[failed to write %s]\n", TelemetryPath);
  }

  if (ServePort >= 0) {
    long Hold = std::max(intOption(Argc, Argv, "--serve-hold", 30), 0L);
    std::printf("[metrics endpoint stays up for %ld s]\n", Hold);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(Hold));
    Switch::stopMetricsServer();
  }
  return 0;
}

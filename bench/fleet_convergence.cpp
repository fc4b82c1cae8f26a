//===- fleet_convergence.cpp - Cold vs fleet-warm-start convergence -------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Quantifies what the fleet calibration service (src/fleet/, DESIGN.md
// §12) buys a brand-new replica: instead of paying the full observation
// ramp alone, it pulls the fleet's aggregated selection store over HTTP
// and warm-starts from decisions its peers already converged on.
//
// Per app, entirely through the real network path:
//  1. Two donor replicas run cold (distinct seeds) and persist their
//     stores — the fleet's existing knowledge.
//  2. An aggregator replica serves /store on an ephemeral loopback
//     port; both donor documents are POSTed at it (flock-merge with
//     decay) and the merged document is pulled back — exactly what
//     `cswitch_fleet aggregate` does.
//  3. The measured replica runs once against an empty store (cold
//     baseline) and once warm-started from the pulled fleet document,
//     counting pre-convergence window evaluations from the event log.
//
// The SessionServerSim concurrent scenario rides the same flow with its
// contention-selected contexts. Acceptance (ISSUE 8): the fleet-warmed
// replica converges in strictly fewer evaluation rounds than cold on at
// least 3 of the 5 DaCapo-substitute apps.
//
// Emits BENCH_fleet.json (schema cswitch-fleet-v1); `--check` exits
// non-zero when the acceptance bar is missed.
//
// Usage: fleet_convergence [--apps a,b] [--scale S] [--json <path>]
//                          [--check]
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "apps/Apps.h"
#include "apps/SessionServer.h"
#include "core/Switch.h"
#include "fleet/FleetSync.h"
#include "store/StoreFormat.h"
#include "support/EventLog.h"
#include "support/MetricsExport.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

/// Pre-convergence work of one run, reconstructed from the event log
/// (same accounting as warmstart_convergence: evaluations before a
/// context's last transition are "searching" work).
struct ConvergenceAccount {
  uint64_t PreconvEvaluations = 0;
  uint64_t Transitions = 0;
  uint64_t WarmStarts = 0;
};

ConvergenceAccount accountFor(const std::vector<Event> &Events) {
  struct PerContext {
    uint64_t Evaluations = 0;
    uint64_t EvalsAtLastTransition = 0;
  };
  std::map<std::string, PerContext> Contexts;
  ConvergenceAccount Account;
  for (const Event &E : Events) {
    if (E.Kind == EventKind::Evaluation) {
      ++Contexts[E.Context].Evaluations;
    } else if (E.Kind == EventKind::Transition) {
      PerContext &C = Contexts[E.Context];
      C.EvalsAtLastTransition = C.Evaluations;
      ++Account.Transitions;
    } else if (E.Kind == EventKind::WarmStart) {
      ++Account.WarmStarts;
    }
  }
  for (const auto &[Name, C] : Contexts)
    Account.PreconvEvaluations += C.EvalsAtLastTransition;
  return Account;
}

void wipe(const std::string &Path) {
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

/// One donor replica: runs \p App cold against its own fresh store and
/// leaves the persisted document at \p StorePath.
void donorRun(AppKind App, const AppRunConfig &Base, uint64_t Seed,
              const std::string &StorePath) {
  wipe(StorePath);
  AppRunConfig Config = Base;
  Config.Seed = Seed;
  Switch::loadStore(StorePath);
  runApp(App, Config);
  Switch::persistStore();
  Switch::closeStore();
}

/// Aggregates donor documents into one fleet document over the real
/// HTTP path: an aggregator replica serves /store, every donor file is
/// pushed at it (merge with decay on the peer), the merged result is
/// pulled back. Returns false when any network leg failed.
bool aggregateOverHttp(const std::vector<std::string> &DonorPaths,
                       const std::string &AggregatorPath,
                       std::vector<StoreSite> &Merged) {
  wipe(AggregatorPath);
  Switch::configure(
      SwitchConfig{ContextOptions{}, FleetOptions{}.serveStore()});
  Switch::loadStore(AggregatorPath);
  uint16_t Port = Switch::serveMetrics(0);
  bool Ok = Port != 0;
  std::string Url = "http://127.0.0.1:" + std::to_string(Port) + "/store";
  std::string Error;
  for (const std::string &Donor : DonorPaths) {
    std::vector<StoreSite> Sites;
    if (!Ok)
      break;
    if (!readStoreFromFile(Donor, Sites, &Error) ||
        !fleet::pushStore(Url, Sites, {}, &Error)) {
      std::fprintf(stderr, "[fleet push of %s failed: %s]\n", Donor.c_str(),
                   Error.c_str());
      Ok = false;
    }
  }
  if (Ok && !fleet::pullStore(Url, Merged, {}, &Error)) {
    std::fprintf(stderr, "[fleet pull failed: %s]\n", Error.c_str());
    Ok = false;
  }
  Switch::stopMetricsServer();
  Switch::closeStore();
  Switch::configure(SwitchConfig{});
  wipe(AggregatorPath);
  return Ok;
}

/// One measured run with the event log freshly drained.
ConvergenceAccount measuredRun(AppKind App, const AppRunConfig &Config) {
  EventLog::global().drain();
  runApp(App, Config);
  return accountFor(EventLog::global().drain());
}

struct AppOutcome {
  const char *Name = nullptr;
  ConvergenceAccount Cold;
  ConvergenceAccount Warm;
  uint64_t FleetSites = 0; ///< Sites in the pulled fleet document.
  bool SyncOk = false;
  bool StrictlyFewer = false;
};

} // namespace

int main(int Argc, char **Argv) {
  double Scale = 0.35;
  if (const char *S = stringOption(Argc, Argv, "--scale", ""))
    if (S[0])
      Scale = std::atof(S);
  const char *JsonPath = stringOption(Argc, Argv, "--json", "BENCH_fleet.json");
  bool Check = hasFlag(Argc, Argv, "--check");

  std::vector<AppKind> Apps;
  {
    const char *Filter = stringOption(Argc, Argv, "--apps", "");
    for (AppKind App : AllAppKinds)
      if (!Filter[0] || std::strstr(Filter, appKindName(App)))
        Apps.push_back(App);
  }

  AppRunConfig Base;
  Base.Model = loadModel();
  Base.Seed = 17;
  Base.Scale = Scale;
  Base.Config = AppConfig::FullAdap;
  Base.Rule = SelectionRule::timeRule();
  Base.CtxOptions.WindowSize = 100;
  Base.CtxOptions.FinishedRatio = 0.6;
  Base.CtxOptions.LogEvents = true;
  Base.CtxOptions.WarmStart = true; // Cold runs simply miss every site.

  std::printf("\nFleet warm-start convergence (scale %.2f): two donor "
              "replicas -> HTTP aggregate -> fresh replica\n",
              Scale);
  std::printf("%-9s | %10s %6s | %10s %6s %6s | %5s | %s\n", "bench",
              "cold-evals", "cold-T", "fleet-evals", "warm-T", "warmed",
              "sites", "fewer?");

  std::vector<AppOutcome> Outcomes;
  size_t AppsStrictlyFewer = 0;
  for (AppKind App : Apps) {
    std::string Prefix = std::string("fleet_") + appKindName(App);
    std::string DonorA = Prefix + "_donor_a.cswitchstore";
    std::string DonorB = Prefix + "_donor_b.cswitchstore";
    std::string FleetPath = Prefix + "_fleet.cswitchstore";
    std::string ColdPath = Prefix + "_cold.cswitchstore";

    AppOutcome Outcome;
    Outcome.Name = appKindName(App);

    // The fleet's existing knowledge: two donor replicas, distinct
    // seeds, each paying its own cold ramp.
    donorRun(App, Base, 101, DonorA);
    donorRun(App, Base, 202, DonorB);

    // Aggregate the donors through the real /store endpoint.
    std::vector<StoreSite> Merged;
    Outcome.SyncOk = aggregateOverHttp({DonorA, DonorB}, Prefix + "_agg.cswitchstore",
                                       Merged);
    Outcome.FleetSites = Merged.size();
    wipe(FleetPath);
    if (Outcome.SyncOk)
      writeStoreToFile(FleetPath, Merged);

    // Cold baseline: the measured replica starts from nothing.
    wipe(ColdPath);
    Switch::loadStore(ColdPath);
    Outcome.Cold = measuredRun(App, Base);
    Switch::closeStore();

    // Fleet-warmed: same replica, same seed, store pulled from the
    // fleet.
    if (Outcome.SyncOk) {
      Switch::loadStore(FleetPath);
      Outcome.Warm = measuredRun(App, Base);
      Switch::closeStore();
    }

    Outcome.StrictlyFewer =
        Outcome.SyncOk &&
        Outcome.Warm.PreconvEvaluations < Outcome.Cold.PreconvEvaluations;
    if (Outcome.StrictlyFewer)
      ++AppsStrictlyFewer;

    std::printf("%-9s | %10llu %6llu | %11llu %6llu %6llu | %5llu | %s\n",
                Outcome.Name,
                (unsigned long long)Outcome.Cold.PreconvEvaluations,
                (unsigned long long)Outcome.Cold.Transitions,
                (unsigned long long)Outcome.Warm.PreconvEvaluations,
                (unsigned long long)Outcome.Warm.Transitions,
                (unsigned long long)Outcome.Warm.WarmStarts,
                (unsigned long long)Outcome.FleetSites,
                Outcome.StrictlyFewer ? "yes" : "NO");
    Outcomes.push_back(Outcome);

    wipe(DonorA);
    wipe(DonorB);
    wipe(FleetPath);
    wipe(ColdPath);
  }

  // The concurrent scenario rides the same fleet flow: donors seed the
  // contention-selected strategies, the warmed replica skips the search.
  ServerRunConfig ServerBase;
  ServerBase.Threads = 2;
  ServerBase.Epochs = 8;
  ServerBase.OpsPerThread = 8000;
  ServerBase.Seed = 17;
  ServerBase.CtxOptions.LogEvents = true;
  ServerBase.CtxOptions.WarmStart = true;
  ConvergenceAccount ServerCold, ServerWarm;
  bool ServerSyncOk = false;
  uint64_t ServerFleetSites = 0;
  {
    std::string DonorA = "fleet_server_donor_a.cswitchstore";
    std::string DonorB = "fleet_server_donor_b.cswitchstore";
    std::string FleetPath = "fleet_server_fleet.cswitchstore";
    std::string ColdPath = "fleet_server_cold.cswitchstore";
    auto ServerDonor = [&ServerBase](uint64_t Seed,
                                     const std::string &StorePath) {
      wipe(StorePath);
      ServerRunConfig Config = ServerBase;
      Config.Seed = Seed;
      Switch::loadStore(StorePath);
      EventLog::global().drain();
      runSessionServerSim(Config);
      Switch::persistStore();
      Switch::closeStore();
    };
    ServerDonor(101, DonorA);
    ServerDonor(202, DonorB);

    std::vector<StoreSite> Merged;
    ServerSyncOk = aggregateOverHttp({DonorA, DonorB},
                                     "fleet_server_agg.cswitchstore", Merged);
    ServerFleetSites = Merged.size();
    wipe(FleetPath);
    if (ServerSyncOk)
      writeStoreToFile(FleetPath, Merged);

    wipe(ColdPath);
    Switch::loadStore(ColdPath);
    EventLog::global().drain();
    runSessionServerSim(ServerBase);
    ServerCold = accountFor(EventLog::global().drain());
    Switch::closeStore();

    if (ServerSyncOk) {
      Switch::loadStore(FleetPath);
      EventLog::global().drain();
      runSessionServerSim(ServerBase);
      ServerWarm = accountFor(EventLog::global().drain());
      Switch::closeStore();
    }
    std::printf("%-9s | %10llu %6llu | %11llu %6llu %6llu | %5llu | %s\n",
                "sessionsv", (unsigned long long)ServerCold.PreconvEvaluations,
                (unsigned long long)ServerCold.Transitions,
                (unsigned long long)ServerWarm.PreconvEvaluations,
                (unsigned long long)ServerWarm.Transitions,
                (unsigned long long)ServerWarm.WarmStarts,
                (unsigned long long)ServerFleetSites,
                ServerWarm.PreconvEvaluations < ServerCold.PreconvEvaluations
                    ? "yes"
                    : "no");
    wipe(DonorA);
    wipe(DonorB);
    wipe(FleetPath);
    wipe(ColdPath);
  }

  FleetStats Fleet = FleetRegistry::global().stats();
  std::printf("\nfleet transport: %llu pushes, %llu pulls, %llu merges "
              "(%llu sites), %llu retries, %llu failures\n",
              (unsigned long long)Fleet.Pushes,
              (unsigned long long)Fleet.Pulls,
              (unsigned long long)Fleet.MergesApplied,
              (unsigned long long)Fleet.SitesMerged,
              (unsigned long long)Fleet.Retries,
              (unsigned long long)(Fleet.PushFailures + Fleet.PullFailures));

  // Machine-readable summary.
  std::string Json = "{\n  \"schema\": \"cswitch-fleet-v1\",\n";
  Json += "  \"scale\": " + std::to_string(Scale) + ",\n  \"apps\": [\n";
  for (size_t I = 0; I != Outcomes.size(); ++I) {
    const AppOutcome &O = Outcomes[I];
    char Buf[320];
    std::snprintf(
        Buf, sizeof(Buf),
        "    {\"app\": \"%s\", \"cold_preconv_evals\": %llu, "
        "\"fleet_preconv_evals\": %llu, \"cold_transitions\": %llu, "
        "\"fleet_transitions\": %llu, \"warm_started_contexts\": %llu, "
        "\"fleet_sites\": %llu, \"sync_ok\": %s, \"strictly_fewer\": %s}%s\n",
        O.Name, (unsigned long long)O.Cold.PreconvEvaluations,
        (unsigned long long)O.Warm.PreconvEvaluations,
        (unsigned long long)O.Cold.Transitions,
        (unsigned long long)O.Warm.Transitions,
        (unsigned long long)O.Warm.WarmStarts,
        (unsigned long long)O.FleetSites, O.SyncOk ? "true" : "false",
        O.StrictlyFewer ? "true" : "false",
        I + 1 == Outcomes.size() ? "" : ",");
    Json += Buf;
  }
  Json += "  ],\n";
  {
    char Buf[320];
    std::snprintf(
        Buf, sizeof(Buf),
        "  \"session_server\": {\"cold_preconv_evals\": %llu, "
        "\"fleet_preconv_evals\": %llu, \"warm_started_contexts\": %llu, "
        "\"fleet_sites\": %llu, \"sync_ok\": %s},\n",
        (unsigned long long)ServerCold.PreconvEvaluations,
        (unsigned long long)ServerWarm.PreconvEvaluations,
        (unsigned long long)ServerWarm.WarmStarts,
        (unsigned long long)ServerFleetSites,
        ServerSyncOk ? "true" : "false");
    Json += Buf;
  }
  Json += "  \"apps_strictly_fewer\": " + std::to_string(AppsStrictlyFewer) +
          ",\n";
  char FleetBuf[256];
  std::snprintf(FleetBuf, sizeof(FleetBuf),
                "  \"fleet_pushes\": %llu,\n  \"fleet_pulls\": %llu,\n"
                "  \"fleet_push_failures\": %llu,\n"
                "  \"fleet_pull_failures\": %llu\n}\n",
                (unsigned long long)Fleet.Pushes,
                (unsigned long long)Fleet.Pulls,
                (unsigned long long)Fleet.PushFailures,
                (unsigned long long)Fleet.PullFailures);
  Json += FleetBuf;
  if (writeTextFile(JsonPath, Json))
    std::printf("[wrote %s]\n", JsonPath);
  else
    std::fprintf(stderr, "[failed to write %s]\n", JsonPath);

  if (Check) {
    bool Pass = AppsStrictlyFewer >= 3;
    std::printf("[check %s: %zu/%zu apps strictly fewer evaluation rounds "
                "fleet-warm than cold]\n",
                Pass ? "passed" : "FAILED", AppsStrictlyFewer,
                Outcomes.size());
    return Pass ? 0 : 1;
  }
  return 0;
}

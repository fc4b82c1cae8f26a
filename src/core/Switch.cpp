//===- Switch.cpp - Top-level CollectionSwitch API ------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/Switch.h"

#include "collections/AdaptiveConfig.h"
#include "model/DefaultModel.h"
#include "obs/MetricsHttp.h"
#include "obs/OpenMetrics.h"
#include "obs/PerfettoExport.h"
#include "obs/Provenance.h"
#include "support/MetricsExport.h"
#include "support/Telemetry.h"
#include "tuner/ParameterSpace.h"
#include "tuner/TuningArtifact.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

using namespace cswitch;

namespace {

std::mutex &modelMutex() {
  static std::mutex Mutex;
  return Mutex;
}

std::shared_ptr<const PerformanceModel> &modelSlot() {
  static std::shared_ptr<const PerformanceModel> Slot;
  return Slot;
}

std::mutex &configMutex() {
  static std::mutex Mutex;
  return Mutex;
}

ContextOptions &contextDefaultsSlot() {
  static ContextOptions Slot;
  return Slot;
}

FleetOptions &fleetOptionsSlot() {
  static FleetOptions Slot;
  return Slot;
}

std::mutex &serverMutex() {
  static std::mutex Mutex;
  return Mutex;
}

std::unique_ptr<obs::MetricsServer> &serverSlot() {
  static std::unique_ptr<obs::MetricsServer> Slot;
  return Slot;
}

// Applies a decoded tuning artifact process-wide. Takes configMutex()
// itself for the context-defaults overlay — callers must not hold it.
bool applyTuningArtifact(const tuner::TuningArtifact &Artifact,
                         const std::string &Source, std::string *Error) {
  auto Fail = [&](const std::string &Reason) {
    TuningRegistry::global().recordFailure();
    std::fprintf(stderr, "cswitch: tuning artifact %s rejected: %s\n",
                 Source.c_str(), Reason.c_str());
    if (Error)
      *Error = Reason;
    return false;
  };
  tuner::ParameterSet Params;
  std::string Reason;
  if (!tuner::paramsFromArtifact(Artifact, Params, &Reason))
    return Fail(Reason);
  // Validate before installing anything, so a rejected artifact leaves
  // the running configuration untouched.
  if (!validateThresholds(Params.thresholds(), &Reason))
    return Fail(Reason);
  AdaptiveConfig::global().setThresholdsChecked(Params.thresholds());
  {
    std::lock_guard<std::mutex> Lock(configMutex());
    ContextOptions &Defaults = contextDefaultsSlot();
    Defaults.WindowSize = Params.windowSize();
    Defaults.FinishedRatio = Params.finishedRatio();
    Defaults.WideRangeFactor = Params.wideRangeFactor();
  }
  TuningStats Provenance;
  Provenance.Source = Source;
  Provenance.Fingerprint = Artifact.HostFingerprint;
  Provenance.CorpusDigest = Artifact.CorpusDigest;
  Provenance.Sweeps = Artifact.Sweeps;
  Provenance.Evaluations = Artifact.Evaluations;
  Provenance.Parameters = Artifact.Rows.size();
  Provenance.WinnerFitness = Artifact.WinnerFitness;
  Provenance.BaselineFitness = Artifact.BaselineFitness;
  TuningRegistry::global().recordLoad(Provenance);
  return true;
}

bool applyTuningFile(const std::string &Path, std::string *Error) {
  tuner::TuningArtifact Artifact;
  std::string Reason;
  if (!tuner::readTuningArtifactFromFile(Path, Artifact, &Reason)) {
    TuningRegistry::global().recordFailure();
    std::fprintf(stderr, "cswitch: tuning artifact %s rejected: %s\n",
                 Path.c_str(), Reason.c_str());
    if (Error)
      *Error = Reason;
    return false;
  }
  return applyTuningArtifact(Artifact, Path, Error);
}

// CSWITCH_TUNING: the zero-code-change path to a tuned configuration,
// mirroring how fleet hosts pick up pushed artifacts. Checked once per
// process, before any explicit SwitchConfig::Tuning application.
void maybeApplyEnvTuning() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    const char *Path = std::getenv("CSWITCH_TUNING");
    if (Path && *Path)
      applyTuningFile(Path, nullptr);
  });
}

} // namespace

std::shared_ptr<const PerformanceModel> Switch::model() {
  std::lock_guard<std::mutex> Lock(modelMutex());
  std::shared_ptr<const PerformanceModel> &Slot = modelSlot();
  if (!Slot) {
    Slot = std::make_shared<const PerformanceModel>(
        defaultPerformanceModel());
    // Provenance for the explain header: decisions are driven by the
    // shipped default model until something better is installed.
    ModelStats Provenance;
    Provenance.Source = "<builtin>";
    ModelRegistry::global().recordInstall(Provenance);
  }
  return Slot;
}

void Switch::setModel(std::shared_ptr<const PerformanceModel> Model) {
  std::lock_guard<std::mutex> Lock(modelMutex());
  modelSlot() = std::move(Model);
}

void Switch::configure(const SwitchConfig &Config) {
  {
    std::lock_guard<std::mutex> Lock(configMutex());
    contextDefaultsSlot() = Config.Context;
    fleetOptionsSlot() = Config.Fleet;
  }
  // Environment-provided tuning first, then the explicit artifact (the
  // configuration the caller named wins over ambient state).
  maybeApplyEnvTuning();
  if (!Config.Tuning.empty())
    applyTuningFile(Config.Tuning, nullptr);
}

ContextOptions Switch::defaultContextOptions() {
  maybeApplyEnvTuning();
  std::lock_guard<std::mutex> Lock(configMutex());
  return contextDefaultsSlot();
}

bool Switch::applyTuning(const std::string &Path, std::string *Error) {
  return applyTuningFile(Path, Error);
}

uint16_t Switch::serveMetrics(uint16_t Port) {
  std::lock_guard<std::mutex> Lock(serverMutex());
  std::unique_ptr<obs::MetricsServer> &Slot = serverSlot();
  if (Slot && Slot->running())
    return 0;
  auto Server = std::make_unique<obs::MetricsServer>();
  // Each route renders a fresh snapshot per request; the snapshot
  // machinery is safe against the running application, so the server
  // thread needs no coordination with it.
  Server->handle(
      "/metrics",
      "application/openmetrics-text; version=1.0.0; charset=utf-8",
      [] { return obs::renderOpenMetrics(SwitchEngine::global().telemetry()); });
  Server->handle("/snapshot.json", "application/json", [] {
    return toJson(SwitchEngine::global().telemetry());
  });
  Server->handle("/trace.json", "application/json",
                 [] { return obs::renderPerfettoTrace(); });
  // Decision provenance (DESIGN.md §14): the full explanation of every
  // retained selection decision. Served whether or not the ledger is
  // enabled — a disabled ledger renders "enabled":false with no sites,
  // so operators can tell "off" apart from "no decisions yet".
  Server->handle("/explain.json", "application/json", [] {
    return obs::renderExplainJson(
        obs::makeExplainHeader(SwitchEngine::global().telemetry()),
        obs::ProvenanceRegistry::global().snapshotSites(),
        obs::ProvenanceRegistry::enabled());
  });
  FleetOptions Fleet;
  {
    std::lock_guard<std::mutex> ConfigLock(configMutex());
    Fleet = fleetOptionsSlot();
  }
  if (Fleet.ServeStore) {
    // Fleet store sync (DESIGN.md §12). GET serves the replica's current
    // knowledge; POST flock-merges a peer's pushed document. Both paths
    // feed the fleet telemetry counters so every failure class is
    // observable.
    Server->handle("/store", "application/octet-stream", [] {
      FleetStats Delta;
      Delta.StoreGets = 1;
      FleetRegistry::global().record(Delta);
      return SwitchEngine::global().exportStore();
    });
    Server->handlePost(
        "/store", Fleet.MaxPushBytes,
        [](std::string_view Body) -> obs::MetricsServer::PostResult {
          std::string Error;
          uint64_t SitesMerged = 0;
          FleetStats Delta;
          if (!SwitchEngine::global().mergeRemoteStore(Body, &Error,
                                                       &SitesMerged)) {
            Delta.RejectedMalformed = 1;
            FleetRegistry::global().record(Delta);
            return {400, "merge failed: " + Error + "\n"};
          }
          Delta.MergesApplied = 1;
          Delta.SitesMerged = SitesMerged;
          FleetRegistry::global().record(Delta);
          return {200, "merged " + std::to_string(SitesMerged) + " sites\n"};
        });
  }
  if (!Server->start(Port))
    return 0;
  Slot = std::move(Server);
  return Slot->port();
}

void Switch::stopMetricsServer() {
  std::lock_guard<std::mutex> Lock(serverMutex());
  serverSlot().reset();
}

uint16_t Switch::metricsPort() {
  std::lock_guard<std::mutex> Lock(serverMutex());
  std::unique_ptr<obs::MetricsServer> &Slot = serverSlot();
  return Slot ? Slot->port() : 0;
}

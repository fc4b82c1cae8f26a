//===- Telemetry.cpp - Observability snapshot schema ---------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

using namespace cswitch;

EventLogStats cswitch::operator-(const EventLogStats &A,
                                 const EventLogStats &B) {
  // The generic delta for the scalar rows, then NodeDropped element-wise,
  // sized by A (a baseline from before the per-node split subtracts
  // nothing).
  EventLogStats Out = cswitch::operator-<EventLogStats>(A, B);
  for (size_t I = 0; I < Out.NodeDropped.size() && I < B.NodeDropped.size();
       ++I)
    Out.NodeDropped[I] -= std::min(Out.NodeDropped[I], B.NodeDropped[I]);
  return Out;
}

ModelRegistry &ModelRegistry::global() {
  static ModelRegistry Instance;
  return Instance;
}

void ModelRegistry::recordInstall(const ModelStats &Provenance) {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Installs = Counters.Installs + 1;
  Counters = Provenance;
  Counters.Installs = Installs;
}

ModelStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

TuningRegistry &TuningRegistry::global() {
  static TuningRegistry Instance;
  return Instance;
}

void TuningRegistry::recordLoad(const TuningStats &Provenance) {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Loads = Counters.Loads + 1;
  uint64_t Failures = Counters.LoadFailures;
  Counters = Provenance;
  Counters.Loads = Loads;
  Counters.LoadFailures = Failures;
}

void TuningRegistry::recordFailure() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Counters.LoadFailures;
}

TuningStats TuningRegistry::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

FleetRegistry &FleetRegistry::global() {
  static FleetRegistry Instance;
  return Instance;
}

void FleetRegistry::record(const FleetStats &Delta) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters += Delta;
}

FleetStats FleetRegistry::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

RecorderRegistry &RecorderRegistry::global() {
  static RecorderRegistry Instance;
  return Instance;
}

uint64_t RecorderRegistry::attach(Source StatsSource) {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Id = NextId++;
  Sources.emplace_back(Id, std::move(StatsSource));
  return Id;
}

void RecorderRegistry::detach(uint64_t Id, const RecorderStats &Final) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto It = Sources.begin(); It != Sources.end(); ++It) {
    if (It->first == Id) {
      Sources.erase(It);
      Retired += Final;
      return;
    }
  }
}

RecorderStats RecorderRegistry::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  RecorderStats Out = Retired;
  for (const auto &[Id, Source] : Sources)
    Out += Source();
  return Out;
}

TelemetrySnapshot cswitch::operator-(const TelemetrySnapshot &Now,
                                     const TelemetrySnapshot &Before) {
  TelemetrySnapshot Out;
  Out.Engine = Now.Engine - Before.Engine;
  Out.Events = Now.Events - Before.Events;
  Out.Recorder = Now.Recorder - Before.Recorder;
  Out.Store = Now.Store - Before.Store;
  Out.Fleet = Now.Fleet - Before.Fleet;
  Out.Tuning = Now.Tuning - Before.Tuning;
  Out.Model = Now.Model - Before.Model;
  // Lifetime-distribution quantiles do not subtract; carry the newer
  // snapshot's distillation verbatim (same convention as Variant).
  Out.Latency = Now.Latency;
  // The topology is static process state, not a counter.
  Out.Topology = Now.Topology;
  std::unordered_map<std::string, const ContextSnapshot *> Baseline;
  Baseline.reserve(Before.Contexts.size());
  for (const ContextSnapshot &C : Before.Contexts)
    Baseline.emplace(C.Name, &C);
  Out.Contexts.reserve(Now.Contexts.size());
  for (const ContextSnapshot &C : Now.Contexts) {
    ContextSnapshot Delta = C;
    auto It = Baseline.find(C.Name);
    if (It != Baseline.end())
      Delta.Stats = C.Stats - It->second->Stats;
    Out.Contexts.push_back(std::move(Delta));
  }
  return Out;
}

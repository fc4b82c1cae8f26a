//===- BenchSupport.h - Shared helpers of the bench harnesses ---*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: loading the measured
/// model produced by `model_builder` (falling back to the built-in
/// default), simple argument parsing, and the host record.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_BENCH_BENCHSUPPORT_H
#define CSWITCH_BENCH_BENCHSUPPORT_H

#include "model/CostModel.h"
#include "model/DefaultModel.h"
#include "model/ModelBuilder.h"
#include "support/Telemetry.h"
#include "support/Topology.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace cswitch {
namespace bench {

/// True if \p Model covers every variant of the current candidate pool
/// (stale model files from older builds miss newer variants).
inline bool modelCoversAllVariants(const PerformanceModel &Model) {
  for (ListVariant V : AllListVariants)
    if (!Model.hasVariant(VariantId::of(V)))
      return false;
  for (SetVariant V : AllSetVariants)
    if (!Model.hasVariant(VariantId::of(V)))
      return false;
  for (MapVariant V : AllMapVariants)
    if (!Model.hasVariant(VariantId::of(V)))
      return false;
  return true;
}

/// Loads the measured model produced by the model_builder tool,
/// searching (in order): the `CSWITCH_MODEL` environment variable,
/// `cswitch_model.txt` in the working directory, and the checked-in
/// `data/cswitch_model.txt`. When none is present and complete, builds
/// a quick measured model for this machine — the paper's position
/// (§4.1) is that hardware-specific calibration is a prerequisite of
/// correct selection — and caches it for the sibling harnesses (at the
/// env-var path when set, else `cswitch_model.txt`).
inline std::shared_ptr<const PerformanceModel> loadModel() {
  const char *EnvPath = std::getenv("CSWITCH_MODEL");
  const char *Candidates[] = {EnvPath ? EnvPath : "", "cswitch_model.txt",
                              "data/cswitch_model.txt"};
  for (const char *Path : Candidates) {
    if (!Path[0])
      continue;
    // loadModelFile backfills the concurrent tier, so model files
    // predating it (or written by a sequential-only calibration) keep
    // working instead of forcing a recalibration.
    auto Model = std::make_shared<PerformanceModel>();
    std::string LoadError;
    if (!loadModelFile(Path, *Model, &LoadError)) {
      // An explicit `CSWITCH_MODEL` that does not load is a
      // configuration error, not a fallback case: silently continuing
      // to `data/cswitch_model.txt` would benchmark a different model
      // than the one the user pinned. Fail loudly with the resolved
      // path.
      if (Path != EnvPath)
        continue;
      char Resolved[PATH_MAX];
      const char *Shown = ::realpath(EnvPath, Resolved) ? Resolved : EnvPath;
      std::fprintf(stderr,
                   "error: CSWITCH_MODEL points at '%s' (resolved: %s) "
                   "but it cannot be loaded: %s\n",
                   EnvPath, Shown, LoadError.c_str());
      std::exit(2);
    }
    if (modelCoversAllVariants(*Model)) {
      std::printf("[using measured model %s]\n", Path);
      ModelStats Provenance;
      Provenance.Source = Path;
      ModelRegistry::global().recordInstall(Provenance);
      return Model;
    }
  }
  std::printf("[calibrating a quick measured model for this machine; run "
              "model_builder for the full plan]\n");
  ModelBuilder Builder(ModelBuildOptions::quick());
  auto Measured = std::make_shared<PerformanceModel>(Builder.build());
  const char *CachePath =
      EnvPath && EnvPath[0] ? EnvPath : "cswitch_model.txt";
  if (Measured->saveToFile(CachePath))
    std::printf("[cached as %s]\n", CachePath);
  // Calibration measures the sequential tier only; graft the concurrent
  // rows (and contention polynomials) from the analytical defaults.
  augmentConcurrentCoverage(*Measured);
  ModelStats Provenance;
  Provenance.Source = CachePath;
  ModelRegistry::global().recordInstall(Provenance);
  return Measured;
}

/// True if the flag is present in argv.
inline bool hasFlag(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I != Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return true;
  return false;
}

/// Parses `--name value` (integer); returns Default when absent.
inline long intOption(int Argc, char **Argv, const char *Name,
                      long Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], Name) == 0)
      return std::atol(Argv[I + 1]);
  return Default;
}

/// Parses `--name value` (string); returns Default when absent.
inline const char *stringOption(int Argc, char **Argv, const char *Name,
                                const char *Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], Name) == 0)
      return Argv[I + 1];
  return Default;
}

/// The contended-sweep thread ladder: {1, 2, 4, 8, 16, 32, 64} clamped
/// to this machine. The ceiling is hardware_concurrency — but never
/// below 8, so small CI boxes still exercise the oversubscribed 4/8
/// points the seed measured — and `--max-threads N` overrides it
/// outright. When the ceiling falls between ladder rungs it is appended
/// so the sweep always ends exactly at the ceiling.
inline std::vector<size_t> threadSweep(int Argc, char **Argv) {
  size_t Hardware = std::thread::hardware_concurrency();
  if (Hardware == 0)
    Hardware = 1;
  size_t Ceiling = std::max<size_t>(Hardware, 8);
  long Override = intOption(Argc, Argv, "--max-threads", 0);
  if (Override > 0)
    Ceiling = static_cast<size_t>(Override);
  std::vector<size_t> Sweep;
  for (size_t Threads : {1u, 2u, 4u, 8u, 16u, 32u, 64u})
    if (Threads <= Ceiling)
      Sweep.push_back(Threads);
  if (Sweep.empty() || Sweep.back() != Ceiling)
    Sweep.push_back(Ceiling);
  return Sweep;
}

/// The host record every bench file carries: `{"nodes": N, "cpus": C}`
/// from Topology::system(), the same object the repository benchmark
/// writes under `topology`.
inline std::string topologyJson() {
  const Topology &Topo = Topology::system();
  return "{\"nodes\": " + std::to_string(Topo.nodeCount()) +
         ", \"cpus\": " + std::to_string(Topo.cpuCount()) + "}";
}

} // namespace bench
} // namespace cswitch

#endif // CSWITCH_BENCH_BENCHSUPPORT_H

//===- cswitch_fleet.cpp - Fleet store sync + recalibration CLI -----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Command-line front end of the fleet calibration service (DESIGN.md
// §12): move selection stores between replicas, aggregate a fleet's
// knowledge into one document, and recalibrate a performance model from
// a recorded trace into a text model any `--model` or `CSWITCH_MODEL`
// reader loads.
//
//   cswitch_fleet pull http://127.0.0.1:9100/store --out fleet.store
//   cswitch_fleet push http://127.0.0.1:9100/store local.store
//   cswitch_fleet aggregate URL... --out fleet.store [--decay 0.5]
//   cswitch_fleet distribute fleet.store URL...
//   cswitch_fleet recalibrate trace.bin --model model.txt
//       --out store.model [--holdout 4] [--epsilon 0.05]
//
// Exit status: 0 on success (for recalibrate: candidate promoted), 1 on
// any failure (for recalibrate: candidate rejected by the held-out
// gate), 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetSync.h"
#include "fleet/Recalibrator.h"
#include "model/DefaultModel.h"
#include "store/SelectionStore.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace cswitch;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: cswitch_fleet <command> ...\n"
      "  pull <url> --out <file>            fetch a peer's store\n"
      "  push <url> <file>                  push a store document\n"
      "  aggregate <url>... --out <file>    pull peers, flock-merge into "
      "<file>\n"
      "      [--decay F]                    remote decay factor "
      "(default 0.5)\n"
      "  distribute <file> <url>...         push one document to many "
      "peers\n"
      "  recalibrate <trace> --out <file>   re-fit the model from a "
      "recorded trace\n"
      "      [--model <file>]               incumbent (default: "
      "built-in)\n"
      "      [--holdout N] [--epsilon E]    gate knobs\n"
      "common: [--timeout MS] [--retries N]\n");
  return 2;
}

struct Args {
  std::vector<std::string> Positional;
  std::string Out;
  std::string Model;
  double Decay = 0.5;
  uint64_t Holdout = 4;
  double Epsilon = 0.05;
  obs::HttpOptions Sync;
};

bool parseArgs(int Argc, char **Argv, Args &Out) {
  for (int I = 2; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](std::string &Slot) {
      if (I + 1 == Argc)
        return false;
      Slot = Argv[++I];
      return true;
    };
    std::string V;
    if (Arg == "--out") {
      if (!Value(Out.Out))
        return false;
    } else if (Arg == "--model") {
      if (!Value(Out.Model))
        return false;
    } else if (Arg == "--decay") {
      if (!Value(V))
        return false;
      Out.Decay = std::atof(V.c_str());
    } else if (Arg == "--holdout") {
      if (!Value(V))
        return false;
      Out.Holdout = std::strtoull(V.c_str(), nullptr, 10);
    } else if (Arg == "--epsilon") {
      if (!Value(V))
        return false;
      Out.Epsilon = std::atof(V.c_str());
    } else if (Arg == "--timeout") {
      if (!Value(V))
        return false;
      Out.Sync.RequestTimeout = std::chrono::milliseconds(std::atol(V.c_str()));
    } else if (Arg == "--retries") {
      if (!Value(V))
        return false;
      Out.Sync.MaxRetries = static_cast<unsigned>(std::atol(V.c_str()));
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Out.Positional.push_back(Arg);
    }
  }
  return true;
}

int cmdPull(const Args &A) {
  if (A.Positional.size() != 1 || A.Out.empty())
    return usage();
  std::vector<StoreSite> Sites;
  std::string Error;
  if (!fleet::pullStore(A.Positional[0], Sites, A.Sync, &Error)) {
    std::fprintf(stderr, "error: pull failed: %s\n", Error.c_str());
    return 1;
  }
  if (!writeStoreToFile(A.Out, Sites, &Error)) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", A.Out.c_str(),
                 Error.c_str());
    return 1;
  }
  std::printf("pulled %zu sites from %s -> %s\n", Sites.size(),
              A.Positional[0].c_str(), A.Out.c_str());
  return 0;
}

int cmdPush(const Args &A) {
  if (A.Positional.size() != 2)
    return usage();
  std::vector<StoreSite> Sites;
  std::string Error;
  if (!readStoreFromFile(A.Positional[1], Sites, &Error)) {
    std::fprintf(stderr, "error: cannot read %s: %s\n",
                 A.Positional[1].c_str(), Error.c_str());
    return 1;
  }
  if (!fleet::pushStore(A.Positional[0], Sites, A.Sync, &Error)) {
    std::fprintf(stderr, "error: push failed: %s\n", Error.c_str());
    return 1;
  }
  std::printf("pushed %zu sites to %s\n", Sites.size(),
              A.Positional[0].c_str());
  return 0;
}

int cmdAggregate(const Args &A) {
  if (A.Positional.empty() || A.Out.empty())
    return usage();
  // The aggregate document is built through the same flock-merge the
  // engine uses, so decay and decision arbitration match exactly what a
  // replica would compute merging the peers one by one.
  SelectionStore Store(StoreOptions{}.decayFactor(A.Decay));
  Store.load(A.Out); // Missing file = start empty (normal).
  size_t Failures = 0;
  for (const std::string &Url : A.Positional) {
    std::vector<StoreSite> Sites;
    std::string Error;
    if (!fleet::pullStore(Url, Sites, A.Sync, &Error)) {
      std::fprintf(stderr, "warning: skipping %s: %s\n", Url.c_str(),
                   Error.c_str());
      ++Failures;
      continue;
    }
    uint64_t Merged = 0;
    if (!Store.mergeRemote(A.Out, Sites, &Error, &Merged)) {
      std::fprintf(stderr, "error: merge into %s failed: %s\n",
                   A.Out.c_str(), Error.c_str());
      return 1;
    }
    std::printf("merged %llu sites from %s\n",
                static_cast<unsigned long long>(Merged), Url.c_str());
  }
  if (Failures == A.Positional.size()) {
    std::fprintf(stderr, "error: every peer failed\n");
    return 1;
  }
  std::printf("aggregate: %zu sites in %s\n", Store.siteCount(),
              A.Out.c_str());
  return 0;
}

int cmdDistribute(const Args &A) {
  if (A.Positional.size() < 2)
    return usage();
  std::vector<StoreSite> Sites;
  std::string Error;
  if (!readStoreFromFile(A.Positional[0], Sites, &Error)) {
    std::fprintf(stderr, "error: cannot read %s: %s\n",
                 A.Positional[0].c_str(), Error.c_str());
    return 1;
  }
  size_t Failures = 0;
  for (size_t I = 1; I != A.Positional.size(); ++I) {
    if (!fleet::pushStore(A.Positional[I], Sites, A.Sync, &Error)) {
      std::fprintf(stderr, "warning: push to %s failed: %s\n",
                   A.Positional[I].c_str(), Error.c_str());
      ++Failures;
      continue;
    }
    std::printf("pushed %zu sites to %s\n", Sites.size(),
                A.Positional[I].c_str());
  }
  return Failures == A.Positional.size() - 1 ? 1 : 0;
}

int cmdRecalibrate(const Args &A) {
  if (A.Positional.size() != 1 || A.Out.empty())
    return usage();
  auto Incumbent = std::make_shared<PerformanceModel>();
  std::string Error;
  if (!loadModelFile(A.Model, *Incumbent, &Error)) {
    std::fprintf(stderr, "error: cannot load model %s: %s\n",
                 A.Model.c_str(), Error.c_str());
    return 1;
  }
  fleet::RecalibrationResult Result = fleet::recalibrateFromTraceFile(
      A.Positional[0], Incumbent, A.Out,
      fleet::RecalibrationOptions{}
          .holdoutModulus(A.Holdout)
          .promotionEpsilon(A.Epsilon),
      &Error);
  std::printf("recalibrate: %zu cells, %zu variants re-fitted, "
              "incumbent residual %.4f, candidate residual %.4f\n",
              Result.CellsMeasured, Result.VariantsRecalibrated,
              Result.IncumbentResidual, Result.CandidateResidual);
  if (!Result.Promoted) {
    std::fprintf(stderr, "rejected: %s%s%s\n", Result.Reason.c_str(),
                 Error.empty() ? "" : ": ", Error.c_str());
    return 1;
  }
  std::printf("promoted -> %s (fingerprint %s)\n", A.Out.c_str(),
              Result.HostFingerprint.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Command = Argv[1];
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage();
  if (Command == "pull")
    return cmdPull(A);
  if (Command == "push")
    return cmdPush(A);
  if (Command == "aggregate")
    return cmdAggregate(A);
  if (Command == "distribute")
    return cmdDistribute(A);
  if (Command == "recalibrate")
    return cmdRecalibrate(A);
  std::fprintf(stderr, "error: unknown command '%s'\n", Command.c_str());
  return usage();
}

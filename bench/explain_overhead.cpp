//===- explain_overhead.cpp - Decision provenance ledger cost gate --------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The cost of the decision provenance ledger (DESIGN.md §14), measured
// where it could hurt: the contended monitoring fast path of fig7 (slot
// claims + profile publication + periodic evaluation) run alternately
// with the ledger disabled (the shipping default) and with
// CSWITCH_EXPLAIN-style capture on. Capture happens on the evaluation
// path only, so the per-instance record cost must be indistinguishable;
// the gate allows 2%. Workers time their op loop and their evaluate()
// calls separately — the evaluation path is where capture legitimately
// spends (~1 us/round for the per-candidate breakdown pass), so it is
// reported as its own per-round column instead of being smeared into
// the fast-path number.
//
// --check turns the run into a CI gate asserting the ledger's three
// contractual guarantees:
//
//   1. Overhead: the contended record-path cost with capture on stays
//      within 2% of the capture-off cost (plus a 1 ns noise floor),
//      each the median of 101 short runs taken alternately off and on.
//   2. Disabled path allocates nothing: after the first capture-off run
//      the registry's allocation counter has not moved.
//   3. Explainability: a fig6-style multi-phase workload (dominant
//      operation changes per phase) produces at least one switched
//      decision whose record carries per-dimension cost breakdowns,
//      criterion thresholds and a positive margin — and rendering the
//      document twice with no intervening decisions is byte-identical.
//
// Results are emitted as machine-readable JSON (default:
// BENCH_explain_overhead.json; --json <path> overrides, --no-json
// disables) to seed the repo's perf trajectory.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/Switch.h"
#include "obs/Provenance.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::bench;

namespace {

/// One contended run's two costs, separated at the path boundary: the
/// per-instance record-path cost (the hot path the ledger must not
/// move) and the per-round evaluation cost (the slow path where
/// capture legitimately spends its time).
struct ContendedCost {
  double RecordNanosPerInstance = 0.0;
  double EvalNanosPerRound = 0.0;
};

/// fig7's contended monitoring workload: worker threads hammer one
/// shared context with monitored create/add/contains/destroy cycles,
/// rotating evaluation rounds as they go. Each worker times its own op
/// loop and its own evaluate() calls separately — capture runs only on
/// the evaluation path, so the record-path number is reported with the
/// evaluation segments excluded (they get their own column instead of
/// silently inflating the fast-path cost).
ContendedCost contendedRecordCost(
    size_t Threads, size_t PerThread,
    const std::shared_ptr<const PerformanceModel> &M) {
  ContextOptions Options;
  Options.WindowSize = 64;
  Options.FinishedRatio = 0.5;
  Options.LogEvents = false;
  ListContext<int64_t> Ctx("explain:contended", ListVariant::ArrayList, M,
                           SelectionRule::impossibleRule(), Options);

  std::atomic<size_t> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<uint64_t> OpNanos(Threads, 0), EvalNanos(Threads, 0),
      EvalRounds(Threads, 0);
  std::vector<std::thread> Workers;
  for (size_t T = 0; T != Threads; ++T) {
    Workers.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire)) {
      }
      Timer ThreadClock;
      uint64_t Evals = 0, Rounds = 0;
      for (size_t I = 0; I != PerThread; ++I) {
        List<int64_t> L = Ctx.createList();
        L.add(static_cast<int64_t>(I));
        (void)L.contains(1);
        if (I % 256 == 255) {
          Timer EvalClock;
          Ctx.evaluate();
          Evals += EvalClock.elapsedNanos();
          ++Rounds;
        }
      }
      OpNanos[T] = ThreadClock.elapsedNanos() - Evals;
      EvalNanos[T] = Evals;
      EvalRounds[T] = Rounds;
    });
  }
  while (Ready.load() != Threads) {
  }
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();

  ContendedCost Cost;
  // The slowest worker's op-loop time is the contended record cost.
  uint64_t WorstOp = 0, TotalEval = 0, TotalRounds = 0;
  for (size_t T = 0; T != Threads; ++T) {
    WorstOp = std::max(WorstOp, OpNanos[T]);
    TotalEval += EvalNanos[T];
    TotalRounds += EvalRounds[T];
  }
  Cost.RecordNanosPerInstance =
      static_cast<double>(WorstOp) / static_cast<double>(PerThread);
  if (TotalRounds != 0)
    Cost.EvalNanosPerRound =
        static_cast<double>(TotalEval) / static_cast<double>(TotalRounds);
  return Cost;
}

/// Capture-off and capture-on costs from alternating runs.
struct AlternatingCosts {
  ContendedCost Off, On;
  /// The registry's allocation count right after the first capture-off
  /// run, which precedes any capture-on work.
  uint64_t AllocationsAfterFirstOff = 0;
};

/// Median contended cost (per component) of Runs capture-off and Runs
/// capture-on runs, alternating off/on with the order swapped every
/// pair (off on, on off, off on, ...), so host phases and the position
/// within a pair hit both sides alike. Runs are short and many: one
/// long block of each, or a few long runs, left the medians wider apart
/// than the 2% gate from run to run and flaked it.
AlternatingCosts alternatingContendedCosts(
    size_t Threads, size_t PerThread,
    const std::shared_ptr<const PerformanceModel> &M) {
  constexpr int Runs = 101;
  std::vector<double> Record[2], Eval[2];
  AlternatingCosts Out;
  for (int R = 0; R != Runs; ++R) {
    for (int Half = 0; Half != 2; ++Half) {
      bool Enabled = (Half == 1) != (R % 2 == 1);
      obs::ProvenanceRegistry::setEnabled(Enabled);
      ContendedCost C = contendedRecordCost(Threads, PerThread, M);
      Record[Enabled].push_back(C.RecordNanosPerInstance);
      Eval[Enabled].push_back(C.EvalNanosPerRound);
      if (R == 0 && Half == 0)
        Out.AllocationsAfterFirstOff =
            obs::ProvenanceRegistry::global().allocationCount();
    }
  }
  auto median = [](std::vector<double> &V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  Out.Off = {median(Record[0]), median(Eval[0])};
  Out.On = {median(Record[1]), median(Eval[1])};
  return Out;
}

enum class Phase { Contains, Iteration, IndexOp };

/// One fig6-style iteration against \p Ctx: populate, then run the
/// phase's dominant operation.
void runPhaseIteration(Phase P, ListContext<int64_t> &Ctx, size_t Instances,
                       size_t Size, size_t Ops) {
  SplitMix64 Rng(13);
  for (size_t I = 0; I != Instances; ++I) {
    List<int64_t> L = Ctx.createList();
    L.reserve(Size);
    for (size_t K = 0; K != Size; ++K)
      L.add(static_cast<int64_t>(K));
    switch (P) {
    case Phase::Contains: {
      uint64_t Hits = 0;
      for (size_t Op = 0; Op != Ops; ++Op)
        Hits += L.contains(static_cast<int64_t>(Rng.nextBelow(Size * 2)));
      (void)Hits;
      break;
    }
    case Phase::Iteration: {
      uint64_t Sum = 0;
      for (size_t Op = 0, E = std::max<size_t>(Ops / 10, 1); Op != E; ++Op)
        L.forEach([&Sum](const int64_t &V) {
          Sum += static_cast<uint64_t>(V);
        });
      (void)Sum;
      break;
    }
    case Phase::IndexOp: {
      uint64_t Sum = 0;
      for (size_t Op = 0; Op != Ops; ++Op)
        Sum += static_cast<uint64_t>(L.get(Rng.nextBelow(Size)));
      (void)Sum;
      break;
    }
    }
  }
}

/// Renders the current global explain document.
std::string renderExplain() {
  return obs::renderExplainJson(
      obs::makeExplainHeader(SwitchEngine::global().telemetry()),
      obs::ProvenanceRegistry::global().snapshotSites(),
      obs::ProvenanceRegistry::enabled());
}

const char *jsonPath(int Argc, char **Argv) {
  if (hasFlag(Argc, Argv, "--no-json"))
    return nullptr;
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--json") == 0)
      return Argv[I + 1];
  return "BENCH_explain_overhead.json";
}

} // namespace

int main(int Argc, char **Argv) {
  bool Check = hasFlag(Argc, Argv, "--check");
  std::shared_ptr<const PerformanceModel> Model = loadModel();

  size_t Threads = std::max<size_t>(
      std::min<size_t>(std::thread::hardware_concurrency() / 2, 8), 2);
  size_t PerThread = static_cast<size_t>(
      std::max(intOption(Argc, Argv, "--instances", 10000), 64L) /
      static_cast<long>(Threads));

  // Order matters for guarantee 2: the first capture-off run comes
  // before any capture-on work, so the allocation counter must still be
  // at zero when it completes.
  std::printf("\nDecision ledger overhead: contended monitoring fast path "
              "(%zu threads)\n",
              Threads);
  AlternatingCosts Costs = alternatingContendedCosts(Threads, PerThread, Model);
  const ContendedCost &Off = Costs.Off;
  const ContendedCost &On = Costs.On;
  uint64_t AllocationsAfterOff = Costs.AllocationsAfterFirstOff;
  double OffNanos = Off.RecordNanosPerInstance;
  double OnNanos = On.RecordNanosPerInstance;
  double DeltaPct = OffNanos > 0.0
                        ? (OnNanos - OffNanos) / OffNanos * 100.0
                        : 0.0;
  std::printf("%12s  %12s  %12s  %14s  %14s\n", "off ns/inst", "on ns/inst",
              "delta", "off ns/round", "on ns/round");
  std::printf("%12.1f  %12.1f  %11.2f%%  %14.0f  %14.0f\n", OffNanos, OnNanos,
              DeltaPct, Off.EvalNanosPerRound, On.EvalNanosPerRound);
  std::printf("allocations after the first capture-off run: %llu\n",
              static_cast<unsigned long long>(AllocationsAfterOff));

  // Multi-phase explainability: the dominant operation changes per
  // phase, so the time rule switches variants and the ledger retains
  // the full story.
  obs::ProvenanceRegistry::setEnabled(true);
  {
    ContextOptions Options;
    Options.WindowSize = 100;
    Options.FinishedRatio = 0.6;
    Options.LogEvents = false;
    ListContext<int64_t> Ctx("explain:multi-phase", ListVariant::ArrayList,
                             Model, SelectionRule::timeRule(), Options);
    for (Phase P : {Phase::Contains, Phase::Iteration, Phase::IndexOp,
                    Phase::Contains}) {
      for (int I = 0; I != 3; ++I) {
        runPhaseIteration(P, Ctx, /*Instances=*/120, /*Size=*/500,
                          /*Ops=*/800);
        Ctx.evaluate();
      }
    }
    std::printf("\nmulti-phase transitions: %llu\n",
                static_cast<unsigned long long>(Ctx.switchCount()));
  }

  std::string First = renderExplain();
  std::string Second = renderExplain();
  bool ByteStable = First == Second;

  obs::ExplainDocument Doc;
  std::string ParseError;
  bool Parsed = obs::parseExplainDocument(First, Doc, &ParseError);
  size_t SwitchedRecords = 0, ExplainedSwitches = 0;
  for (const obs::SiteLedgerSnapshot &Site : Doc.Sites) {
    for (const obs::DecisionRecord &R : Site.Records) {
      if (R.Outcome != obs::DecisionOutcome::Switched)
        continue;
      ++SwitchedRecords;
      // A switched record must explain itself: criteria with
      // thresholds, per-dimension breakdowns for the chosen candidate,
      // and a positive margin (it beat every criterion by something).
      bool HasBreakdown =
          R.ChosenVariant >= 0 &&
          static_cast<uint8_t>(R.ChosenVariant) < R.NumCandidates &&
          R.Candidates[static_cast<size_t>(R.ChosenVariant)].Total[0] > 0.0;
      if (R.NumCriteria != 0 && HasBreakdown && R.Margin > 0.0)
        ++ExplainedSwitches;
    }
  }
  std::printf("explain document: %zu bytes, %zu sites, %zu switched "
              "records (%zu fully explained), byte-stable: %s\n",
              First.size(), Doc.Sites.size(), SwitchedRecords,
              ExplainedSwitches, ByteStable ? "yes" : "NO");

  if (const char *Path = jsonPath(Argc, Argv)) {
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path);
      return 1;
    }
    std::fprintf(F, "{\n  \"bench\": \"explain_overhead\",\n");
    std::fprintf(F, "  \"threads\": %zu,\n", Threads);
    std::fprintf(F, "  \"record_ns_off\": %.1f,\n", OffNanos);
    std::fprintf(F, "  \"record_ns_on\": %.1f,\n", OnNanos);
    std::fprintf(F, "  \"delta_pct\": %.2f,\n", DeltaPct);
    std::fprintf(F, "  \"eval_round_ns_off\": %.0f,\n", Off.EvalNanosPerRound);
    std::fprintf(F, "  \"eval_round_ns_on\": %.0f,\n", On.EvalNanosPerRound);
    std::fprintf(F, "  \"allocations_disabled\": %llu,\n",
                 static_cast<unsigned long long>(AllocationsAfterOff));
    std::fprintf(F, "  \"switched_records\": %zu,\n", SwitchedRecords);
    std::fprintf(F, "  \"explained_switches\": %zu,\n", ExplainedSwitches);
    std::fprintf(F, "  \"byte_stable\": %s\n", ByteStable ? "true" : "false");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("[wrote %s]\n", Path);
  }

  if (!Check)
    return 0;

  int Failures = 0;
  // Guarantee 1: capture on the evaluation path must not move the
  // contended record-path cost. 2% plus a 1 ns floor (sub-ns medians
  // are timer-noise territory).
  if (OnNanos > OffNanos + std::max(0.02 * OffNanos, 1.0)) {
    std::fprintf(stderr,
                 "FAIL: capture-on record path %.1f ns exceeds 2%% over "
                 "capture-off %.1f ns\n",
                 OnNanos, OffNanos);
    ++Failures;
  }
  // Guarantee 2: the disabled ledger allocates nothing.
  if (AllocationsAfterOff != 0) {
    std::fprintf(stderr,
                 "FAIL: disabled ledger performed %llu allocations\n",
                 static_cast<unsigned long long>(AllocationsAfterOff));
    ++Failures;
  }
  // Guarantee 3: decisions are explained, and snapshots without
  // intervening decisions are byte-identical.
  if (!Parsed) {
    std::fprintf(stderr, "FAIL: explain document does not parse: %s\n",
                 ParseError.c_str());
    ++Failures;
  }
  if (SwitchedRecords == 0) {
    std::fprintf(stderr,
                 "FAIL: multi-phase workload recorded no switched "
                 "decisions\n");
    ++Failures;
  } else if (ExplainedSwitches != SwitchedRecords) {
    std::fprintf(stderr,
                 "FAIL: %zu of %zu switched records lack breakdowns, "
                 "criteria or a positive margin\n",
                 SwitchedRecords - ExplainedSwitches, SwitchedRecords);
    ++Failures;
  }
  if (!ByteStable) {
    std::fprintf(stderr,
                 "FAIL: consecutive explain snapshots differ without "
                 "intervening decisions\n");
    ++Failures;
  }
  if (Failures == 0)
    std::printf("[check] all explain-ledger guarantees hold\n");
  return Failures == 0 ? 0 : 1;
}

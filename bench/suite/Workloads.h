//===- Workloads.h - The benchmark's workloads ------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the four workloads and the traced layer probe. Each
/// workload sets itself up several times (the median is setup_s),
/// warms up, then measures batches until its time budget is spent,
/// checking every output it produces. With a span log, every other
/// batch is traced and the workload also reports trace.overhead.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_BENCH_SUITE_WORKLOADS_H
#define CSWITCH_BENCH_SUITE_WORKLOADS_H

#include "Report.h"

#include "model/CostModel.h"

#include <functional>
#include <map>
#include <memory>
#include <string>

namespace cswitch {
namespace suite {

/// What one workload run is asked to do.
struct RunContext {
  uint64_t Seed = 17;
  /// Measurement budget of the workload (setup and warm-up excluded).
  double Seconds = 15.0;
  /// How often set-up is timed (see SetupTimer).
  int SetupRepeats = 7;
  std::string ModelPath;
  /// Span log of a traced run; null when untraced.
  SpanLog *Log = nullptr;
  /// Expected Original checksums for seed 17, keyed "<app>/<input>"
  /// (empty: not checked).
  std::map<std::string, uint64_t> Golden;
};

/// Loads, validates and returns the pinned model; exits the process
/// with status 2 when it cannot be loaded or misses a variant (never
/// falls back to calibration, which would change setup_s and the
/// decisions).
std::shared_ptr<const PerformanceModel>
loadPinnedModel(const std::string &Path);

/// Times a workload's set-up RunContext::SetupRepeats times: once up
/// front, keeping what it built (Setup(true)), and the other times on
/// throwaway state (Setup(false)) spread evenly over the measurement,
/// each repeat pinned to the next allowed cpu in turn. setup_s is their
/// interquartile mean. On a shared virtual machine each repeat lands in
/// a fast or a 1.5x slower state of its cpu, about half and half; a
/// median of seven then jumps between the two from run to run, where
/// the interquartile mean moves with the share of slow repeats and
/// still drops the cold first set-up.
class SetupTimer {
public:
  SetupTimer(const RunContext &Ctx, std::function<void(bool Keep)> Setup)
      : Setup(std::move(Setup)), Repeats(Ctx.SetupRepeats),
        Budget(Ctx.Seconds) {
    run(true);
  }

  /// Called between measured batches: runs the next repeat when due.
  void tick() {
    double Now = nowSeconds();
    if (Start == 0.0)
      Start = Now;
    int Done = static_cast<int>(Seconds.size());
    if (Done < Repeats && Now >= Start + Budget * (Done - 0.5) / (Repeats - 1))
      run(false);
  }

  /// Runs the repeats not yet due; returns setup_s.
  double finish() {
    while (static_cast<int>(Seconds.size()) < Repeats)
      run(false);
    return interquartileMean(Seconds);
  }

private:
  void run(bool Keep);

  std::function<void(bool)> Setup;
  int Repeats;
  double Budget;
  double Start = 0.0;
  std::vector<double> Seconds;
};

/// Stream-derived seed \p Index of \p Seed (the workloads' inputs).
uint64_t deriveSeed(uint64_t Seed, uint64_t Index);

/// The five Table 5 apps, Original against FullAdap under Rtime (or,
/// with \p MonitorOnly, under the impossible rule).
void runDacapo(const RunContext &Ctx, bool MonitorOnly, Report &R);

/// Six monitored sites fed a seeded stream of small instances.
void runOpStream(const RunContext &Ctx, Report &R);

/// The multi-tenant session server on the concurrent tier.
void runSessionServer(const RunContext &Ctx, Report &R);

/// The per-layer probe of a traced run: the layer ladder, spans around
/// context creation, destruction and evaluation, and model ranking.
/// Ctx.Log must be set.
void runLayerProbe(const RunContext &Ctx, Report &R);

} // namespace suite
} // namespace cswitch

#endif // CSWITCH_BENCH_SUITE_WORKLOADS_H

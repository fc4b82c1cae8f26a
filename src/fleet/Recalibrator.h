//===- Recalibrator.h - On-device cost-model recalibration ------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-device recalibration of the performance model (DESIGN.md §12): a
/// replica re-fits the cost polynomials it actually decides with against
/// measurements of its own recorded workload, instead of trusting the
/// shipped model forever.
///
/// The pipeline replays a recorded `cswitch-optrace-v1` corpus through
/// the Replayer's fixed mode — one isolated, never-started engine per
/// measurement, so the running application is never perturbed — and
/// compares measured time/allocation against the incumbent model's
/// predictions:
///
///  1. The trace's instances are split by instance id into a fit slice
///     and a held-out validation slice (instance % HoldoutModulus == 0
///     is held out).
///  2. The fit slice is partitioned into measurement cells: one
///     (abstraction, sequential variant, log2-size bucket) sub-trace
///     each. Every cell is replayed pinned to its variant and yields a
///     (predicted, measured) pair per cost dimension.
///  3. Per (variant, dimension ∈ {Time, Alloc}) a multiplicative
///     correction alpha = Σ measured·predicted / Σ predicted² (least
///     squares through the origin) scales the incumbent's polynomials
///     into the candidate model through PerformanceModel::setCost, so
///     the derived Energy rows follow. Contention rows (analytic-only,
///     DESIGN.md §11) and concurrent-tier variants are carried over
///     verbatim.
///  4. The candidate is validated on the held-out slice: it is promoted
///     only when its mean relative prediction error does not regress
///     past the incumbent's by more than PromotionEpsilon. A promoted
///     model is installed as a text model (PerformanceModel::saveToFile,
///     atomic replace) with its host, fit time and held-out residual in
///     leading `#` lines, so `--model`, `CSWITCH_MODEL` and every other
///     loader read it. It is never silently swapped in-process.
///
/// Measurement is injectable (RecalibrationOptions::Measure) so tests
/// drive the promotion gate deterministically; the default measures by
/// fixed-mode replay. BackgroundRecalibrator spreads the same work over
/// the engine's reporter ticks — one cell per report — so recalibration
/// rides the existing background thread at low priority.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_FLEET_RECALIBRATOR_H
#define CSWITCH_FLEET_RECALIBRATOR_H

#include "core/SwitchEngine.h"
#include "model/CostModel.h"
#include "replay/TraceFormat.h"

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace cswitch {
namespace fleet {

/// What one measurement cell costs when actually executed.
struct CellMeasurement {
  uint64_t ElapsedNanos = 0;
  uint64_t AllocatedBytes = 0;
};

/// Tuning knobs of a recalibration run.
struct RecalibrationOptions {
  /// Instances with id % HoldoutModulus == 0 form the held-out
  /// validation slice (never fitted). Must be >= 2 so both slices are
  /// non-empty on real corpora.
  uint64_t HoldoutModulus = 4;
  /// Root seed of the deterministic replay measurements.
  uint64_t Seed = 0x1905;
  /// The candidate is promoted when its held-out mean relative error
  /// does not exceed the incumbent's by more than this.
  double PromotionEpsilon = 0.05;
  /// Cells whose sub-trace carries fewer executable ops than this are
  /// dropped (too noisy to fit).
  uint64_t MinCellOps = 16;
  /// Measures one cell: replay \p Slice pinned to \p Variant of
  /// \p Kind. Defaults to Replayer fixed mode; tests inject synthetic
  /// measurements to drive the promotion gate both ways.
  std::function<CellMeasurement(AbstractionKind Kind, unsigned Variant,
                                const OpTrace &Slice)>
      Measure;

  RecalibrationOptions &holdoutModulus(uint64_t Value) {
    HoldoutModulus = Value;
    return *this;
  }
  RecalibrationOptions &seed(uint64_t Value) {
    Seed = Value;
    return *this;
  }
  RecalibrationOptions &promotionEpsilon(double Value) {
    PromotionEpsilon = Value;
    return *this;
  }
  RecalibrationOptions &minCellOps(uint64_t Value) {
    MinCellOps = Value;
    return *this;
  }
};

/// Outcome of a recalibration run.
struct RecalibrationResult {
  /// True when the candidate passed the held-out gate (and, via
  /// recalibrate-and-install paths, was written to disk).
  bool Promoted = false;
  /// Mean relative prediction error on the held-out slice.
  double IncumbentResidual = 0.0;
  double CandidateResidual = 0.0;
  /// Cells measured (fit + holdout) and variants whose rows were
  /// rescaled.
  size_t CellsMeasured = 0;
  size_t VariantsRecalibrated = 0;
  /// Why the candidate was not promoted (empty when Promoted).
  std::string Reason;
  /// The candidate model, promoted or not, so rejected fits remain
  /// inspectable.
  PerformanceModel Candidate;
  /// Host the fit ran on (hostFingerprint()) and when (unix seconds, as
  /// passed to finish()). With CandidateResidual they are the comment
  /// lines of the installed model.
  std::string HostFingerprint;
  uint64_t FitTimestamp = 0;
};

/// Incremental recalibration of one trace corpus against an incumbent
/// model. step() measures one cell at a time (the unit of background
/// work); finish() fits, validates and builds the candidate. Not
/// thread-safe — callers serialize (BackgroundRecalibrator runs on the
/// single reporter thread).
class Recalibrator {
public:
  Recalibrator(OpTrace Trace,
               std::shared_ptr<const PerformanceModel> Incumbent,
               RecalibrationOptions Options = {});

  /// Total measurement cells this corpus produced.
  size_t cellCount() const { return Cells.size(); }

  /// Cells measured so far.
  size_t cellsMeasured() const { return NextCell; }

  /// True once every cell is measured.
  bool measured() const { return NextCell == Cells.size(); }

  /// Measures the next cell. Returns false when none remain.
  bool step();

  /// Measures every remaining cell.
  void measureAll() {
    while (step()) {
    }
  }

  /// Fits the candidate and validates it on the held-out slice
  /// (FitTimestamp taken as \p FitTimestamp — pass unix seconds; the
  /// library never reads the clock so runs stay reproducible). Requires
  /// measured().
  RecalibrationResult finish(uint64_t FitTimestamp) const;

  /// measureAll() + finish().
  RecalibrationResult run(uint64_t FitTimestamp) {
    measureAll();
    return finish(FitTimestamp);
  }

private:
  /// One measurement cell: the instances of one (abstraction, variant,
  /// log2-size bucket) on one slice.
  struct Cell {
    AbstractionKind Kind = AbstractionKind::List;
    unsigned Variant = 0;
    unsigned Bucket = 0;
    bool Holdout = false;
    /// Shared across the variants measured on one (bucket, slice)
    /// group — the sub-trace is variant-independent.
    std::shared_ptr<const OpTrace> Slice;
    /// Incumbent-model prediction per dimension of interest.
    double PredictedTime = 0.0;
    double PredictedAlloc = 0.0;
    /// Filled by step().
    CellMeasurement Measured;
    bool Done = false;
  };

  std::shared_ptr<const PerformanceModel> Incumbent;
  RecalibrationOptions Options;
  std::vector<Cell> Cells;
  size_t NextCell = 0;
};

/// Loads the trace at \p TracePath, recalibrates against \p Incumbent
/// and — only when the candidate passes the held-out gate — atomically
/// installs the candidate model at \p ModelPath (conventionally beside
/// the selection store, e.g. `<store>.model`). Fleet telemetry counters
/// (Recalibrations, Promotions, PromotionsRejected) are recorded either
/// way.
RecalibrationResult
recalibrateFromTraceFile(const std::string &TracePath,
                         std::shared_ptr<const PerformanceModel> Incumbent,
                         const std::string &ModelPath,
                         RecalibrationOptions Options = {},
                         std::string *Error = nullptr);

/// Background recalibration riding the engine's reporter thread: one
/// measurement cell per report tick, then one fit/validate/install at
/// the end — the whole corpus is spread across ticks so no single tick
/// stalls the background thread for long. Wrap the application's sink
/// (or {}) with sink() and install the result via
/// SwitchEngine::setReporter / Switch::setReporter.
class BackgroundRecalibrator {
public:
  BackgroundRecalibrator(OpTrace Trace,
                         std::shared_ptr<const PerformanceModel> Incumbent,
                         std::string ModelPath,
                         RecalibrationOptions Options = {});

  /// A reporter sink that chains to \p Inner (may be empty) and then
  /// advances the recalibration by one cell. The returned callable
  /// shares this object's state — keep the BackgroundRecalibrator alive
  /// while the reporter is installed.
  std::function<void(const TelemetrySnapshot &)>
  sink(std::function<void(const TelemetrySnapshot &)> Inner = {});

  /// True once the run finished (promoted or not).
  bool finished() const;

  /// The outcome, once finished.
  std::optional<RecalibrationResult> result() const;

private:
  void tick();

  mutable std::mutex Mutex;
  Recalibrator Work;
  std::string ModelPath;
  std::optional<RecalibrationResult> Outcome;
};

} // namespace fleet
} // namespace cswitch

#endif // CSWITCH_FLEET_RECALIBRATOR_H

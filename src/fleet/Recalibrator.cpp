//===- Recalibrator.cpp - On-device cost-model recalibration --------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "fleet/Recalibrator.h"

#include "replay/Replayer.h"
#include "support/Telemetry.h"
#include "support/Topology.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

using namespace cswitch;
using namespace cswitch::fleet;

namespace {

/// Correction factors are clamped to this range: a fit asking for more
/// than a 64x rescale says the measurement or the trace is broken, not
/// that the shipped model is off by that much.
constexpr double MinAlpha = 1.0 / 64.0;
constexpr double MaxAlpha = 64.0;

unsigned bucketOf(uint64_t MaxSize) {
  unsigned Bucket = 0;
  while (MaxSize != 0) {
    ++Bucket;
    MaxSize >>= 1;
  }
  return Bucket; // floor(log2(size)) + 1; 0 for empty collections.
}

/// Relative prediction error of one (predicted, measured) pair.
double relativeError(double Predicted, double Measured) {
  return std::abs(Predicted - Measured) / std::max(Measured, 1.0);
}

CellMeasurement measureByReplay(uint64_t Seed, AbstractionKind Kind,
                                unsigned Variant, const OpTrace &Slice) {
  ReplayOptions Opts;
  Opts.Mode = ReplayMode::Fixed;
  Opts.Seed = Seed;
  Opts.Threads = 1;
  switch (Kind) {
  case AbstractionKind::List:
    Opts.FixedList = Variant;
    break;
  case AbstractionKind::Set:
    Opts.FixedSet = Variant;
    break;
  case AbstractionKind::Map:
    Opts.FixedMap = Variant;
    break;
  }
  ReplayResult Result = Replayer(Slice, Opts).run();
  return {Result.ElapsedNanos, Result.AllocatedBytes};
}

} // namespace

Recalibrator::Recalibrator(OpTrace Trace,
                           std::shared_ptr<const PerformanceModel> Incumbent,
                           RecalibrationOptions Options)
    : Incumbent(std::move(Incumbent)), Options(std::move(Options)) {
  if (this->Options.HoldoutModulus < 2)
    this->Options.HoldoutModulus = 2;

  // Pass 1: per recorded instance, its site, max size and op count.
  struct InstanceInfo {
    uint64_t MaxSize = 0;
    uint64_t Ops = 0;
  };
  std::map<std::pair<uint32_t, uint32_t>, InstanceInfo> Instances;
  for (const TraceOp &Op : Trace.Ops) {
    InstanceInfo &Info = Instances[{Op.Site, Op.Instance}];
    ++Info.Ops;
    Info.MaxSize = std::max<uint64_t>(Info.MaxSize, Op.Size);
  }

  // Pass 2: group instances into (abstraction, log2-size bucket, slice)
  // sub-traces.
  struct GroupKey {
    AbstractionKind Kind;
    unsigned Bucket;
    bool Holdout;
    bool operator<(const GroupKey &Other) const {
      return std::tie(Kind, Bucket, Holdout) <
             std::tie(Other.Kind, Other.Bucket, Other.Holdout);
    }
  };
  std::map<GroupKey, std::set<std::pair<uint32_t, uint32_t>>> Groups;
  for (const auto &[Key, Info] : Instances) {
    if (Key.first >= Trace.Sites.size())
      continue; // Malformed reference; the decoder rejects these anyway.
    GroupKey Group{Trace.Sites[Key.first].Kind, bucketOf(Info.MaxSize),
                   Key.second % this->Options.HoldoutModulus == 0};
    Groups[Group].insert(Key);
  }

  // Pass 3: one shared sub-trace per group, one cell per sequential
  // variant of the group's abstraction (the concurrent tier is
  // analytic-only, DESIGN.md §11 — never re-fitted from replay).
  for (const auto &[Group, Members] : Groups) {
    auto Slice = std::make_shared<OpTrace>();
    Slice->Sites = Trace.Sites;
    for (const TraceOp &Op : Trace.Ops)
      if (Members.count({Op.Site, Op.Instance}))
        Slice->Ops.push_back(Op);
    if (Slice->Ops.size() < this->Options.MinCellOps)
      continue;
    Slice->InstancesSampled = Members.size();

    // The incumbent's prediction of this slice is variant-dependent but
    // shares the per-instance profiles; aggregate once.
    std::vector<SiteProfile> Profiles = aggregateTrace(*Slice);
    for (unsigned Variant = 0;
         Variant != firstConcurrentVariant(Group.Kind); ++Variant) {
      Cell C;
      C.Kind = Group.Kind;
      C.Variant = Variant;
      C.Bucket = Group.Bucket;
      C.Holdout = Group.Holdout;
      C.Slice = Slice;
      for (const SiteProfile &Site : Profiles) {
        if (Site.Kind != Group.Kind)
          continue;
        for (const WorkloadProfile &Profile : Site.Profiles) {
          C.PredictedTime += this->Incumbent->totalCost(
              {Group.Kind, Variant}, Profile, CostDimension::Time);
          C.PredictedAlloc += this->Incumbent->totalCost(
              {Group.Kind, Variant}, Profile, CostDimension::Alloc);
        }
      }
      Cells.push_back(std::move(C));
    }
  }
}

bool Recalibrator::step() {
  if (NextCell == Cells.size())
    return false;
  Cell &C = Cells[NextCell++];
  C.Measured = Options.Measure
                   ? Options.Measure(C.Kind, C.Variant, *C.Slice)
                   : measureByReplay(Options.Seed, C.Kind, C.Variant,
                                     *C.Slice);
  C.Done = true;
  return true;
}

RecalibrationResult Recalibrator::finish(uint64_t FitTimestamp) const {
  RecalibrationResult Result;
  Result.CellsMeasured = NextCell;

  // Least squares through the origin per (variant, dimension): the
  // incumbent's predictions p_i against the measurements m_i of the fit
  // cells give the multiplicative correction alpha = Σ m·p / Σ p².
  struct VariantFit {
    double SumMPTime = 0.0, SumPPTime = 0.0;
    double SumMPAlloc = 0.0, SumPPAlloc = 0.0;
    double AlphaTime = 1.0, AlphaAlloc = 1.0;
    bool Fitted = false;
  };
  std::map<std::pair<unsigned, unsigned>, VariantFit> Fits;
  for (const Cell &C : Cells) {
    if (!C.Done || C.Holdout)
      continue;
    VariantFit &Fit =
        Fits[{static_cast<unsigned>(C.Kind), C.Variant}];
    double MTime = static_cast<double>(C.Measured.ElapsedNanos);
    double MAlloc = static_cast<double>(C.Measured.AllocatedBytes);
    Fit.SumMPTime += MTime * C.PredictedTime;
    Fit.SumPPTime += C.PredictedTime * C.PredictedTime;
    Fit.SumMPAlloc += MAlloc * C.PredictedAlloc;
    Fit.SumPPAlloc += C.PredictedAlloc * C.PredictedAlloc;
  }
  for (auto &[Key, Fit] : Fits) {
    if (Fit.SumPPTime <= 0.0 && Fit.SumPPAlloc <= 0.0)
      continue;
    auto Clamped = [](double Alpha) {
      if (!std::isfinite(Alpha) || Alpha <= 0.0)
        return 1.0;
      return std::clamp(Alpha, MinAlpha, MaxAlpha);
    };
    Fit.AlphaTime =
        Fit.SumPPTime > 0.0 ? Clamped(Fit.SumMPTime / Fit.SumPPTime) : 1.0;
    Fit.AlphaAlloc =
        Fit.SumPPAlloc > 0.0 ? Clamped(Fit.SumMPAlloc / Fit.SumPPAlloc)
                             : 1.0;
    Fit.Fitted = true;
    ++Result.VariantsRecalibrated;
  }
  // Candidate model: the incumbent with the Time/Alloc polynomials of
  // fitted variants rescaled. Cells exist only for sequential variants,
  // so Contention and the concurrent tier carry over; setCost
  // re-derives each rescaled cell's Energy.
  Result.Candidate = *Incumbent;
  for (const auto &[Key, Fit] : Fits) {
    if (!Fit.Fitted)
      continue;
    VariantId Id{static_cast<AbstractionKind>(Key.first), Key.second};
    auto Rescale = [&](OperationKind Op, CostDimension Dim, double Alpha) {
      Result.Candidate.setCost(Id, Op, Dim,
                               Result.Candidate.cost(Id, Op, Dim).scaled(Alpha));
    };
    for (OperationKind Op : AllOperationKinds) {
      Rescale(Op, CostDimension::Time, Fit.AlphaTime);
      Rescale(Op, CostDimension::Alloc, Fit.AlphaAlloc);
    }
  }

  // Held-out validation: mean relative prediction error of incumbent
  // vs. candidate on the cells neither ever fitted. The candidate's
  // prediction is the incumbent's scaled by the variant's alpha.
  double IncumbentSum = 0.0, CandidateSum = 0.0;
  size_t HoldoutTerms = 0;
  for (const Cell &C : Cells) {
    if (!C.Done || !C.Holdout)
      continue;
    double AlphaTime = 1.0, AlphaAlloc = 1.0;
    auto It = Fits.find({static_cast<unsigned>(C.Kind), C.Variant});
    if (It != Fits.end() && It->second.Fitted) {
      AlphaTime = It->second.AlphaTime;
      AlphaAlloc = It->second.AlphaAlloc;
    }
    double MTime = static_cast<double>(C.Measured.ElapsedNanos);
    double MAlloc = static_cast<double>(C.Measured.AllocatedBytes);
    IncumbentSum += relativeError(C.PredictedTime, MTime);
    IncumbentSum += relativeError(C.PredictedAlloc, MAlloc);
    CandidateSum += relativeError(AlphaTime * C.PredictedTime, MTime);
    CandidateSum += relativeError(AlphaAlloc * C.PredictedAlloc, MAlloc);
    HoldoutTerms += 2;
  }

  Result.HostFingerprint = hostFingerprint();
  Result.FitTimestamp = FitTimestamp;

  if (Result.VariantsRecalibrated == 0) {
    Result.Reason = "no variant had enough fit measurements";
    return Result;
  }
  if (HoldoutTerms == 0) {
    Result.Reason = "no held-out cells to validate against";
    return Result;
  }
  Result.IncumbentResidual = IncumbentSum / HoldoutTerms;
  Result.CandidateResidual = CandidateSum / HoldoutTerms;
  if (Result.CandidateResidual >
      Result.IncumbentResidual + Options.PromotionEpsilon) {
    Result.Reason = "held-out residual regressed past the incumbent";
    return Result;
  }
  Result.Promoted = true;
  return Result;
}

namespace {

void recordRecalibration(const RecalibrationResult &Result) {
  FleetStats Delta;
  Delta.Recalibrations = 1;
  if (Result.Promoted)
    Delta.Promotions = 1;
  else
    Delta.PromotionsRejected = 1;
  FleetRegistry::global().record(Delta);
}

/// Installs a promoted candidate at \p Path with its provenance in
/// comment lines; on failure demotes \p Result and says why.
void installCandidate(const std::string &Path, RecalibrationResult &Result) {
  char Residual[32];
  std::snprintf(Residual, sizeof(Residual), "%.17g",
                Result.CandidateResidual);
  std::string Why;
  if (Result.Candidate.saveToFile(
          Path,
          {"host " + Result.HostFingerprint,
           "fit_timestamp " + std::to_string(Result.FitTimestamp),
           std::string("holdout_residual ") + Residual},
          &Why))
    return;
  Result.Promoted = false;
  Result.Reason = "cannot install model: " + Why;
}

uint64_t nowUnixSeconds() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::seconds>(
                                   std::chrono::system_clock::now()
                                       .time_since_epoch())
                                   .count());
}

} // namespace

RecalibrationResult cswitch::fleet::recalibrateFromTraceFile(
    const std::string &TracePath,
    std::shared_ptr<const PerformanceModel> Incumbent,
    const std::string &ModelPath, RecalibrationOptions Options,
    std::string *Error) {
  RecalibrationResult Result;
  OpTrace Trace;
  if (!readTraceFromFile(TracePath, Trace, Error)) {
    Result.Reason = "cannot read trace";
    return Result;
  }
  Recalibrator Work(std::move(Trace), std::move(Incumbent),
                    std::move(Options));
  Result = Work.run(nowUnixSeconds());
  if (Result.Promoted)
    installCandidate(ModelPath, Result);
  recordRecalibration(Result);
  return Result;
}

BackgroundRecalibrator::BackgroundRecalibrator(
    OpTrace Trace, std::shared_ptr<const PerformanceModel> Incumbent,
    std::string ModelPath, RecalibrationOptions Options)
    : Work(std::move(Trace), std::move(Incumbent), std::move(Options)),
      ModelPath(std::move(ModelPath)) {}

std::function<void(const TelemetrySnapshot &)> BackgroundRecalibrator::sink(
    std::function<void(const TelemetrySnapshot &)> Inner) {
  return [this, Inner = std::move(Inner)](const TelemetrySnapshot &Snapshot) {
    if (Inner)
      Inner(Snapshot);
    tick();
  };
}

void BackgroundRecalibrator::tick() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Outcome)
    return;
  if (Work.step())
    return; // One cell per tick: low-priority background progress.
  RecalibrationResult Result = Work.finish(nowUnixSeconds());
  if (Result.Promoted)
    installCandidate(ModelPath, Result);
  recordRecalibration(Result);
  Outcome = std::move(Result);
}

bool BackgroundRecalibrator::finished() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Outcome.has_value();
}

std::optional<RecalibrationResult> BackgroundRecalibrator::result() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Outcome;
}

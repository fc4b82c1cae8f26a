//===- OfflineAdvisor.h - Chameleon-style offline selection -----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline-selection baseline the paper positions itself against
/// (§6, Offline Collection Selection — Chameleon, Brainy, Perflint):
/// record workload profiles during a profiling run, then report a
/// per-site recommendation the developer applies by hand. Unlike the
/// online framework, the recommendation is one static choice per site —
/// it cannot follow phase changes, which is precisely the gap
/// CollectionSwitch's runtime adaptation closes (§1).
///
/// The recommendation is the online context's own decision
/// (decideSite, core/VariantSelection.h) run once over the whole run's
/// profiles, with the mask of a ContextOptions{} context: the
/// sequential tier plus the declared variant. It is therefore always a
/// choice the runtime could make.
///
/// Usage: record an operation trace (ContextOptions::recorder or
/// `table5_dacapo --record`) and aggregate it with aggregateTrace()
/// (replay/Replayer.h), or attach a ProfileAggregator as the sink of
/// the collections of one allocation site; then ask adviseOffline() for
/// the report. `cswitch_advisor trace.optrace` does the former.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_CORE_OFFLINEADVISOR_H
#define CSWITCH_CORE_OFFLINEADVISOR_H

#include "core/SelectionRule.h"
#include "core/VariantSelection.h"
#include "profile/WorkloadProfile.h"

#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace cswitch {

/// One allocation site's aggregate workload: one profile per finished
/// instance. The only aggregate form of the offline pipeline; the
/// advisor, the policy simulator and the recalibrator all consume it.
struct SiteProfile {
  std::string Name;
  AbstractionKind Kind = AbstractionKind::List;
  unsigned DeclaredVariantIndex = 0;
  std::vector<WorkloadProfile> Profiles; ///< One per recorded instance.
};

/// Collects every finished-instance profile of one allocation site
/// during a profiling run. Thread-safe.
class ProfileAggregator : public ProfileSink {
public:
  ProfileAggregator(std::string Site, AbstractionKind Kind,
                    unsigned DeclaredVariantIndex);

  void onInstanceFinished(size_t Slot,
                          const WorkloadProfile &Profile) override;

  const std::string &site() const { return Collected.Name; }

  /// Snapshot of the collected aggregate.
  SiteProfile profile() const;

  /// Number of finished instances recorded.
  size_t instanceCount() const;

  /// Caps retained profiles; further instances merge into the last
  /// bucket so unbounded runs cannot exhaust memory.
  static constexpr size_t MaxRetainedProfiles = 65536;

private:
  mutable std::mutex Mutex;
  /// Guarded by Mutex, except Name, Kind and DeclaredVariantIndex: they
  /// never change after construction, so site() reads Name unlocked.
  SiteProfile Collected;
  size_t Instances = 0;
};

/// One line of the offline report.
struct SiteRecommendation {
  std::string Site;
  AbstractionKind Kind = AbstractionKind::List;
  unsigned DeclaredVariantIndex = 0;
  /// Recommended replacement; empty when the declared variant is already
  /// the rule-best choice (or no profile data was collected).
  std::optional<unsigned> RecommendedVariantIndex;
  /// Predicted total cost of the declared variant, per dimension
  /// (contention is not priced offline and reads 0).
  std::array<double, NumCostDimensions> DeclaredCost = {};
  /// Predicted total cost of the recommendation (== DeclaredCost when
  /// there is none).
  std::array<double, NumCostDimensions> RecommendedCost = {};
  size_t InstancesProfiled = 0; ///< Profiles the advice covers.

  /// Predicted improvement ratio on \p Dim (1.0 when no recommendation).
  double improvementRatio(CostDimension Dim) const;

  /// "Site: Declared -> Recommended (time x0.42, alloc x1.00, energy
  /// x0.45; 12 instances)" style line.
  std::string toString() const;
};

/// Computes per-site recommendations from recorded profiles through the
/// online context's decision (decideSite) with a ContextOptions{}
/// context's inputs: the sequential tier mask, the process-wide adaptive
/// thresholds and no thread estimate. Offline and online therefore
/// agree whenever the workload is stable — the property the
/// offline/online comparison rests on.
std::vector<SiteRecommendation>
adviseOffline(const std::vector<SiteProfile> &Sites,
              const PerformanceModel &Model, const SelectionRule &Rule);

} // namespace cswitch

#endif // CSWITCH_CORE_OFFLINEADVISOR_H

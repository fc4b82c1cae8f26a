//===- OfflineAdvisor.cpp - Chameleon-style offline selection -------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/OfflineAdvisor.h"

#include "collections/AdaptiveConfig.h"
#include "core/AllocationContext.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace cswitch;

ProfileAggregator::ProfileAggregator(std::string Site,
                                     AbstractionKind Kind,
                                     unsigned DeclaredVariantIndex)
    : Collected{std::move(Site), Kind, DeclaredVariantIndex, {}} {}

void ProfileAggregator::onInstanceFinished(size_t,
                                           const WorkloadProfile &Profile) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Instances;
  if (Collected.Profiles.size() < MaxRetainedProfiles)
    Collected.Profiles.push_back(Profile);
  else
    Collected.Profiles.back().merge(Profile);
}

SiteProfile ProfileAggregator::profile() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Collected;
}

size_t ProfileAggregator::instanceCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Instances;
}

double SiteRecommendation::improvementRatio(CostDimension Dim) const {
  if (!RecommendedVariantIndex)
    return 1.0;
  double Declared = DeclaredCost[static_cast<size_t>(Dim)];
  if (Declared <= 0.0)
    return 1.0;
  return RecommendedCost[static_cast<size_t>(Dim)] / Declared;
}

std::string SiteRecommendation::toString() const {
  std::ostringstream OS;
  OS << Site << ": " << VariantId{Kind, DeclaredVariantIndex}.name();
  if (!RecommendedVariantIndex) {
    OS << " (keep; " << InstancesProfiled << " instances)";
    return OS.str();
  }
  OS << " -> " << VariantId{Kind, *RecommendedVariantIndex}.name() << " (";
  // No contention column: an offline profile has no thread estimate.
  const char *Separator = "";
  for (CostDimension Dim :
       {CostDimension::Time, CostDimension::Alloc, CostDimension::Energy}) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", improvementRatio(Dim));
    OS << Separator << costDimensionName(Dim) << " x" << Buf;
    Separator = ", ";
  }
  OS << "; " << InstancesProfiled << " instances)";
  return OS.str();
}

namespace {

/// The site's profiles merged per maximum size, in ascending size order
/// (sizes saturate at 32 bits, as in the online window slots).
std::vector<SizeGroup>
groupBySize(const std::vector<WorkloadProfile> &Profiles) {
  std::map<uint32_t, SizeGroup> BySize;
  for (const WorkloadProfile &Profile : Profiles) {
    auto Size = static_cast<uint32_t>(
        std::min<uint64_t>(Profile.MaxSize, UINT32_MAX));
    SizeGroup &G = BySize[Size];
    G.MaxSize = Size;
    ++G.Instances;
    for (size_t Op = 0; Op != NumOperationKinds; ++Op)
      G.Counts[Op] += Profile.Counts[Op];
  }
  std::vector<SizeGroup> Groups;
  Groups.reserve(BySize.size());
  for (const auto &Entry : BySize)
    Groups.push_back(Entry.second);
  return Groups;
}

} // namespace

std::vector<SiteRecommendation>
cswitch::adviseOffline(const std::vector<SiteProfile> &Sites,
                       const PerformanceModel &Model,
                       const SelectionRule &Rule) {
  // The decision a ContextOptions{} context makes — the context the
  // replayer builds: the sequential tier plus the declared variant, the
  // process-wide adaptive thresholds, no thread estimate. Contention is
  // not priced: an offline profile carries no thread count.
  const ContextOptions Defaults;
  const AdaptiveThresholds Thresholds = AdaptiveConfig::global().thresholds();
  DecisionInputs In;
  In.WideRangeFactor = Defaults.WideRangeFactor;
  In.Dims.fill(true);
  In.Dims[static_cast<size_t>(CostDimension::Contention)] = false;

  std::vector<SiteRecommendation> Report;
  Report.reserve(Sites.size());
  SiteDecision Decision;
  for (const SiteProfile &Site : Sites) {
    SiteRecommendation Rec;
    Rec.Site = Site.Name;
    Rec.Kind = Site.Kind;
    Rec.DeclaredVariantIndex = Site.DeclaredVariantIndex;
    Rec.InstancesProfiled = Site.Profiles.size();

    In.Kind = Site.Kind;
    In.Current = Site.DeclaredVariantIndex;
    In.CandidateMask =
        Model.coverageMask(Site.Kind) &
        (concurrencyCandidateMask(Site.Kind, Defaults.ConcurrencyMode) |
         1u << Site.DeclaredVariantIndex);
    In.AdaptiveThreshold = adaptiveThresholdIn(Thresholds, Site.Kind);
    decideSite(groupBySize(Site.Profiles), Model, Rule, In, Decision);

    Rec.DeclaredCost = Decision.Candidates[Rec.DeclaredVariantIndex].Total;
    Rec.RecommendedVariantIndex = Decision.Choice;
    Rec.RecommendedCost =
        Decision.Choice ? Decision.Candidates[*Decision.Choice].Total
                        : Rec.DeclaredCost;
    Report.push_back(std::move(Rec));
  }
  return Report;
}

//===- OfflineAdvisor.cpp - Chameleon-style offline selection -------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/OfflineAdvisor.h"

#include "collections/AdaptiveConfig.h"
#include "core/AllocationContext.h"

#include <algorithm>
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
  bool First = true;
  for (CostDimension Dim : AllCostDimensions) {
    if (!First)
      OS << ", ";
    OS << costDimensionName(Dim) << " x";
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", improvementRatio(Dim));
    OS << Buf;
    First = false;
  }
  OS << "; " << InstancesProfiled << " instances)";
  return OS.str();
}

namespace {

bool isAdaptiveIndex(AbstractionKind Kind, unsigned Index) {
  switch (Kind) {
  case AbstractionKind::List:
    return static_cast<ListVariant>(Index) == ListVariant::AdaptiveList;
  case AbstractionKind::Set:
    return static_cast<SetVariant>(Index) == SetVariant::AdaptiveSet;
  case AbstractionKind::Map:
    return static_cast<MapVariant>(Index) == MapVariant::AdaptiveMap;
  }
  return false;
}

size_t adaptiveThresholdOf(AbstractionKind Kind) {
  AdaptiveThresholds T = AdaptiveConfig::global().thresholds();
  switch (Kind) {
  case AbstractionKind::List:
    return T.List;
  case AbstractionKind::Set:
    return T.Set;
  case AbstractionKind::Map:
    return T.Map;
  }
  return 0;
}

} // namespace

std::vector<SiteRecommendation>
cswitch::adviseOffline(const std::vector<SiteProfile> &Sites,
                       const PerformanceModel &Model,
                       const SelectionRule &Rule,
                       double WideRangeFactor) {
  std::vector<SiteRecommendation> Report;
  Report.reserve(Sites.size());

  for (const SiteProfile &Site : Sites) {
    SiteRecommendation Rec;
    Rec.Site = Site.Name;
    Rec.Kind = Site.Kind;
    Rec.DeclaredVariantIndex = Site.DeclaredVariantIndex;
    Rec.InstancesProfiled = Site.Profiles.size();

    const std::vector<WorkloadProfile> &Profiles = Site.Profiles;
    size_t NumVariants = numVariantsOf(Rec.Kind);
    std::vector<VariantCosts> Costs(NumVariants);
    uint64_t MinMaxSize = UINT64_MAX;
    uint64_t MaxMaxSize = 0;
    for (const WorkloadProfile &Profile : Profiles) {
      MinMaxSize = std::min(MinMaxSize, Profile.MaxSize);
      MaxMaxSize = std::max(MaxMaxSize, Profile.MaxSize);
      for (unsigned V = 0; V != NumVariants; ++V) {
        VariantId Id{Rec.Kind, V};
        for (CostDimension Dim : AllCostDimensions)
          Costs[V].Total[static_cast<size_t>(Dim)] +=
              Model.totalCost(Id, Profile, Dim);
      }
    }
    for (unsigned V = 0; V != NumVariants; ++V)
      if (!Model.hasVariant({Rec.Kind, V}))
        Costs[V].Eligible = false;

    // The same adaptive-variant gate the online contexts apply (§3.2).
    if (!Profiles.empty()) {
      size_t Threshold = adaptiveThresholdOf(Rec.Kind);
      bool Straddles = MinMaxSize <= Threshold && MaxMaxSize > Threshold;
      bool WideSpread =
          static_cast<double>(MaxMaxSize) >=
          WideRangeFactor *
              std::max<double>(1.0, static_cast<double>(MinMaxSize));
      if (!Straddles && !WideSpread)
        for (unsigned V = 0; V != NumVariants; ++V)
          if (isAdaptiveIndex(Rec.Kind, V))
            Costs[V].Eligible = false;
    }

    Rec.DeclaredCost = Costs[Rec.DeclaredVariantIndex].Total;
    Rec.RecommendedCost = Rec.DeclaredCost;
    if (!Profiles.empty()) {
      std::optional<unsigned> Choice =
          selectVariant(Costs, Rec.DeclaredVariantIndex, Rule);
      if (Choice) {
        Rec.RecommendedVariantIndex = Choice;
        Rec.RecommendedCost = Costs[*Choice].Total;
      }
    }
    Report.push_back(std::move(Rec));
  }
  return Report;
}

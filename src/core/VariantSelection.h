//===- VariantSelection.h - The variant selection algorithm -----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The site decision of §3.1–3.2, factored out of the templated
/// allocation contexts so the online round, the decision ledger and the
/// offline advisor all run the same code: decideSite() prices every
/// candidate variant over a site's size groups (§3.1.1), gates the
/// adaptive variant on the observed size range (§3.2) and lets
/// selectVariant() apply the selection rule (§3.1.2).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_CORE_VARIANTSELECTION_H
#define CSWITCH_CORE_VARIANTSELECTION_H

#include "collections/AdaptiveConfig.h"
#include "core/SelectionRule.h"

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace cswitch {

/// Rule criteria whose ratios a decision reports per candidate.
inline constexpr size_t MaxReportedCriteria = 4;

/// Total costs of one candidate variant, indexed by CostDimension.
struct VariantCosts {
  /// Totals as the rule compares them: with the contention fold,
  /// Total[time] includes the contention penalty (DESIGN.md §11).
  std::array<double, NumCostDimensions> Total = {};
  /// Unfolded components: PreFold[time] is the time polynomials alone
  /// and PreFold[contention] the contention polynomials at the thread
  /// estimate. Filled by decideSite().
  std::array<double, NumCostDimensions> PreFold = {};
  /// False excludes the variant from selection (e.g. an adaptive variant
  /// gated out because instance sizes were not widely ranging, §3.2).
  bool Eligible = true;
  /// Set by selectVariant(): TC_D(this)/TC_D(current) per rule criterion,
  /// -1 where the current cost is zero (no finite ratio) or past the
  /// rule's criteria.
  std::array<double, MaxReportedCriteria> Ratio = {};
  /// Set by selectVariant(): eligible, not the current variant, and
  /// within every criterion's threshold.
  bool Qualified = false;

  double of(CostDimension Dim) const {
    return Total[static_cast<size_t>(Dim)];
  }
};

/// Selects a replacement variant.
///
/// \p Costs is indexed by variant (enum order); \p Current is the index
/// of the variant currently instantiated. A candidate qualifies if it is
/// eligible and every criterion ratio TC_D(cand)/TC_D(current) is within
/// the rule's threshold; among qualifying candidates the one with the
/// lowest cost in the rule's primary dimension wins (§3.1.2: "largest
/// improvement on the first criterion"). \returns the winning variant
/// index, or std::nullopt to keep the current variant.
///
/// Zero current cost in a criterion dimension means nothing can improve
/// on it; such criteria only pass for candidates that are also free in
/// that dimension when the threshold permits no penalty.
///
/// Every candidate's Ratio and Qualified are written back. When
/// \p Margin is non-null it receives the worst-case slack (min over
/// criteria of threshold - ratio) of the winner; on a keep, the largest
/// such slack among the eligible non-current candidates (negative = how
/// far the closest one missed); 0 when no ratio was computable.
std::optional<unsigned> selectVariant(std::vector<VariantCosts> &Costs,
                                      unsigned Current,
                                      const SelectionRule &Rule,
                                      double *Margin = nullptr);

/// Index of \p Kind's adaptive variant (§3.2).
unsigned adaptiveVariantOf(AbstractionKind Kind);

/// \p Kind's transition threshold in \p Thresholds.
size_t adaptiveThresholdIn(const AdaptiveThresholds &Thresholds,
                           AbstractionKind Kind);

/// Finished-instance profiles of one site that peaked at the same
/// maximum size, merged: the unit of pricing (each cost polynomial is
/// evaluated once per group, not once per instance).
struct SizeGroup {
  uint32_t MaxSize = 0;
  uint32_t Instances = 0;
  std::array<uint64_t, NumOperationKinds> Counts = {};
};

/// What one site decision reads besides the size groups, the model and
/// the rule.
struct DecisionInputs {
  AbstractionKind Kind = AbstractionKind::List;
  unsigned Current = 0; ///< Variant currently instantiated.
  /// Bit V set iff variant V competes: model coverage ∧ (concurrency
  /// tier ∪ the current variant). Only these variants are priced.
  uint32_t CandidateMask = 0;
  size_t AdaptiveThreshold = 0; ///< §3.2 threshold of Kind's adaptive variant.
  double WideRangeFactor = 4.0; ///< ContextOptions::WideRangeFactor.
  /// Estimated threads operating on the site; above one, the contention
  /// polynomials evaluated at it fold into time. 0 = uncontended.
  double Threads = 0.0;
  /// Dimensions to price; the others read zero.
  std::array<bool, NumCostDimensions> Dims = {};
};

/// The outcome of one site decision.
struct SiteDecision {
  std::vector<VariantCosts> Candidates; ///< Indexed by variant.
  bool ContentionFolded = false; ///< Threads > 1: time carries the penalty.
  bool Straddles = false; ///< Group sizes straddle the adaptive threshold.
  bool Wide = false;      ///< Group sizes spread by WideRangeFactor.
  std::optional<unsigned> Choice; ///< selectVariant()'s verdict.
  double Margin = 0.0;            ///< selectVariant()'s margin.
};

/// The site decision: prices every candidate of \p In.CandidateMask in
/// \p In.Dims over \p Groups (sorted by ascending MaxSize, which fixes
/// the floating-point summation order), gates the adaptive variant, and
/// selects. Each dimension has its own accumulator, so a dimension's
/// totals do not depend on which others are priced. With no groups
/// nothing is priced and the current variant is kept.
void decideSite(const std::vector<SizeGroup> &Groups,
                const PerformanceModel &Model, const SelectionRule &Rule,
                const DecisionInputs &In, SiteDecision &Out);

} // namespace cswitch

#endif // CSWITCH_CORE_VARIANTSELECTION_H

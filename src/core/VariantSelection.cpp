//===- VariantSelection.cpp - The variant selection algorithm ------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/VariantSelection.h"

#include <algorithm>
#include <cassert>

using namespace cswitch;

std::optional<unsigned>
cswitch::selectVariant(std::vector<VariantCosts> &Costs, unsigned Current,
                       const SelectionRule &Rule, double *Margin) {
  assert(Current < Costs.size() && "current variant out of range");
  assert(!Rule.Criteria.empty() && "rule without criteria");

  const VariantCosts &CurrentCosts = Costs[Current];
  CostDimension Primary = Rule.primaryDimension();

  std::optional<unsigned> Best;
  double BestPrimary = 0.0;
  std::optional<double> BestSlack;
  std::optional<double> KeptSlack;
  for (unsigned V = 0, E = static_cast<unsigned>(Costs.size()); V != E;
       ++V) {
    VariantCosts &Cand = Costs[V];
    Cand.Ratio.fill(-1.0);
    bool Satisfied = true;
    std::optional<double> Slack;
    for (size_t C = 0; C != Rule.Criteria.size(); ++C) {
      const Criterion &Crit = Rule.Criteria[C];
      double Cur = CurrentCosts.of(Crit.Dimension);
      double Value = Cand.of(Crit.Dimension);
      if (Cur <= 0.0) {
        // Nothing to improve on: a strict-improvement criterion
        // (threshold < 1) can never hold; a penalty cap holds only for
        // candidates that are also cost-free.
        if (Crit.Threshold < 1.0 || Value > 0.0)
          Satisfied = false;
        continue;
      }
      double Ratio = Value / Cur;
      if (C < MaxReportedCriteria)
        Cand.Ratio[C] = Ratio;
      Slack = std::min(Slack.value_or(Crit.Threshold - Ratio),
                       Crit.Threshold - Ratio);
      if (Ratio > Crit.Threshold)
        Satisfied = false;
    }
    Cand.Qualified = V != Current && Cand.Eligible && Satisfied;
    if (V != Current && Cand.Eligible && Slack)
      KeptSlack = std::max(KeptSlack.value_or(*Slack), *Slack);
    if (!Cand.Qualified)
      continue;

    double Primal = Cand.of(Primary);
    if (!Best || Primal < BestPrimary) {
      Best = V;
      BestPrimary = Primal;
      BestSlack = Slack;
    }
  }
  if (Margin)
    *Margin = (Best ? BestSlack : KeptSlack).value_or(0.0);
  return Best;
}

unsigned cswitch::adaptiveVariantOf(AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return static_cast<unsigned>(ListVariant::AdaptiveList);
  case AbstractionKind::Set:
    return static_cast<unsigned>(SetVariant::AdaptiveSet);
  case AbstractionKind::Map:
    return static_cast<unsigned>(MapVariant::AdaptiveMap);
  }
  assert(false && "unknown abstraction kind");
  return 0;
}

size_t cswitch::adaptiveThresholdIn(const AdaptiveThresholds &Thresholds,
                                    AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return Thresholds.List;
  case AbstractionKind::Set:
    return Thresholds.Set;
  case AbstractionKind::Map:
    return Thresholds.Map;
  }
  return 0;
}

void cswitch::decideSite(const std::vector<SizeGroup> &Groups,
                         const PerformanceModel &Model,
                         const SelectionRule &Rule, const DecisionInputs &In,
                         SiteDecision &Out) {
  size_t NumVariants = numVariantsOf(In.Kind);
  Out.Candidates.assign(NumVariants, VariantCosts());
  for (unsigned V = 0; V != NumVariants; ++V)
    Out.Candidates[V].Eligible = (In.CandidateMask >> V) & 1u;
  // Contention penalty (DESIGN.md §11): the per-operation extra
  // nanoseconds of each variant's contention polynomial evaluated at
  // the thread estimate, folded into the time dimension.
  Out.ContentionFolded = In.Threads > 1.0;
  Out.Straddles = Out.Wide = false;
  Out.Choice.reset();
  Out.Margin = 0.0;
  if (Groups.empty())
    return;

  // Memoized total costs: every cost_op,V(s) polynomial is evaluated
  // once per (variant, op, dimension, distinct size) — not once per
  // instance. Variants outside the mask (no model coverage, or another
  // tier) are skipped outright: their total cost would read as zero and
  // they must not compete.
  for (unsigned V = 0; V != NumVariants; ++V) {
    VariantCosts &Cand = Out.Candidates[V];
    if (!Cand.Eligible)
      continue;
    VariantId Id{In.Kind, V};
    for (CostDimension Dim : AllCostDimensions) {
      size_t D = static_cast<size_t>(Dim);
      if (!In.Dims[D])
        continue;
      bool Fold = Out.ContentionFolded && Dim == CostDimension::Time;
      double Total = 0.0;
      double PreFold = 0.0;
      for (const SizeGroup &G : Groups) {
        // The contention polynomials' argument is the thread count;
        // every other dimension's is the collection size.
        double Arg = Dim == CostDimension::Contention
                         ? In.Threads
                         : static_cast<double>(G.MaxSize);
        for (OperationKind Op : AllOperationKinds) {
          uint64_t N = G.Counts[static_cast<size_t>(Op)];
          if (N == 0)
            continue;
          double PerOp = Model.operationCost(Id, Op, Dim, Arg);
          if (Fold) {
            PreFold += static_cast<double>(N) * PerOp;
            PerOp += Model.operationCost(Id, Op, CostDimension::Contention,
                                         In.Threads);
          }
          Total += static_cast<double>(N) * PerOp;
        }
      }
      Cand.Total[D] = Total;
      // Unfolded, the total is its own pre-fold component.
      Cand.PreFold[D] = Fold ? PreFold : Total;
    }
  }

  // Adaptive-variant gate (§3.2): only a candidate when the observed
  // maximum sizes ranged widely — straddling the adaptive threshold, or
  // spread by at least the configured factor.
  uint64_t MinMaxSize = Groups.front().MaxSize;
  uint64_t MaxMaxSize = Groups.back().MaxSize;
  Out.Straddles =
      MinMaxSize <= In.AdaptiveThreshold && MaxMaxSize > In.AdaptiveThreshold;
  Out.Wide = static_cast<double>(MaxMaxSize) >=
             In.WideRangeFactor *
                 std::max<double>(1.0, static_cast<double>(MinMaxSize));
  VariantCosts &Adaptive = Out.Candidates[adaptiveVariantOf(In.Kind)];
  Adaptive.Eligible = Adaptive.Eligible && (Out.Straddles || Out.Wide);

  Out.Choice = selectVariant(Out.Candidates, In.Current, Rule, &Out.Margin);
}

//===- SelectionRule.h - Configurable selection rules -----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configurable selection rules (paper §3.1.2): a rule is a conjunction of
/// criteria, each bounding the ratio TC_D(Vnew)/TC_D(Vcur) of a candidate
/// variant's total cost to the current variant's total cost in one
/// dimension. A threshold below 1 demands an improvement; at or above 1 it
/// caps the allowed penalty. The presets reproduce the paper's Table 4:
///
///   Rtime : time ratio < 0.8
///   Ralloc: alloc ratio < 0.8  and  time ratio < 1.2
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_CORE_SELECTIONRULE_H
#define CSWITCH_CORE_SELECTIONRULE_H

#include "model/CostModel.h"

#include <string>
#include <string_view>
#include <vector>

namespace cswitch {

/// One criterion: TC_Dimension(Vnew) / TC_Dimension(Vcur) <= Threshold.
struct Criterion {
  CostDimension Dimension;
  double Threshold;
};

/// A named conjunction of criteria. The first criterion is the
/// improvement dimension: when several candidates satisfy every
/// criterion, the one with the largest improvement on it wins (§3.1.2).
struct SelectionRule {
  std::string Name;
  std::vector<Criterion> Criteria;

  /// The paper's Rtime rule: time cost < 0.8 (Table 4).
  static SelectionRule timeRule();

  /// The paper's Ralloc rule: alloc cost < 0.8, time penalty < 1.2
  /// (Table 4).
  static SelectionRule allocRule();

  /// The energy rule of the paper's future-work dimension (§7):
  /// energy cost < 0.8, time penalty < 1.2 (mirrors Ralloc's shape).
  static SelectionRule energyRule();

  /// The overhead-measurement rule (paper §5.3): requires a 1000x
  /// improvement, so no transition ever fires while all monitoring and
  /// analysis machinery stays active.
  static SelectionRule impossibleRule();

  /// Parses a command-line rule name ("rtime", "ralloc", "renergy" or
  /// "impossible") into its preset. \returns false for any other name.
  static bool fromName(std::string_view Name, SelectionRule &Out);

  /// The improvement dimension (dimension of the first criterion).
  CostDimension primaryDimension() const;
};

} // namespace cswitch

#endif // CSWITCH_CORE_SELECTIONRULE_H

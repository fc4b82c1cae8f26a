//===- ParameterSpace.h - Typed tuner parameter space -----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed parameter space the offline tuner searches (DESIGN.md §13):
/// the paper's selection parameters — the adaptive-switch thresholds
/// (§3.2 Table 1) and the monitoring window geometry (§3.3: window size,
/// finished ratio, wide-range gate). Every row closes the loop: the
/// tuner's fitness replay runs with it (Tuner::replayOptionsFor) and
/// Switch::applyTuning installs it, so every value a process installs
/// is one the tuner measured.
///
/// A ParameterSet is one point of the space: a dense array of doubles
/// indexed by ParamId, always clamped to the per-parameter bounds, with
/// integer-typed parameters held at integral values.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_TUNER_PARAMETERSPACE_H
#define CSWITCH_TUNER_PARAMETERSPACE_H

#include "collections/AdaptiveConfig.h"

#include <array>
#include <cstddef>
#include <string_view>

namespace cswitch {
namespace tuner {

/// Identity of one tunable parameter. The enumerator order is the dense
/// storage order of ParameterSet and the order the search visits;
/// artifacts are keyed by the stable string names in parameterSpace().
enum class ParamId : unsigned {
  AdaptiveListThreshold, ///< AdaptiveList array->hash size (paper: 80).
  AdaptiveSetThreshold,  ///< AdaptiveSet array->hash size (paper: 40).
  AdaptiveMapThreshold,  ///< AdaptiveMap array->hash size (paper: 50).
  ContextWindow,         ///< Monitoring window size (paper: 100).
  ContextFinishedRatio,  ///< Finished ratio gating analysis (paper: 0.6).
  ContextWideRangeFactor, ///< Adaptive wide-range gate (§3.2).
};

/// Number of tunable parameters (one per ParamId enumerator).
inline constexpr size_t NumTunableParams = 6;

/// Static description of one parameter: stable artifact name, bounds,
/// paper default, and whether values must be integral.
struct ParamInfo {
  ParamId Id;
  const char *Name; ///< Stable key used in `cswitch-tuning-v2` rows.
  double Min;
  double Max;
  double Default;
  bool Integer;
};

/// The full parameter table, indexed by ParamId.
const std::array<ParamInfo, NumTunableParams> &parameterSpace();

/// Looks a parameter up by its stable artifact name; nullptr when
/// unknown.
const ParamInfo *findParam(std::string_view Name);

/// Clamps \p Value into \p Info's bounds, rounding integer parameters
/// to the nearest integral value first.
double clampParam(const ParamInfo &Info, double Value);

/// One point of the parameter space. Values are always within bounds:
/// every write path clamps.
class ParameterSet {
public:
  /// Initializes every parameter to its paper default.
  ParameterSet();

  double get(ParamId Id) const {
    return Values[static_cast<size_t>(Id)];
  }

  /// Sets \p Id to \p Value clamped into its bounds (integral for
  /// integer parameters).
  void set(ParamId Id, double Value);

  bool operator==(const ParameterSet &Other) const {
    return Values == Other.Values;
  }

  /// Raw storage (for memoization).
  const std::array<double, NumTunableParams> &values() const {
    return Values;
  }

  /// Adaptive transition thresholds (collections/AdaptiveConfig).
  AdaptiveThresholds thresholds() const;

  size_t windowSize() const {
    return static_cast<size_t>(get(ParamId::ContextWindow));
  }
  double finishedRatio() const { return get(ParamId::ContextFinishedRatio); }
  double wideRangeFactor() const {
    return get(ParamId::ContextWideRangeFactor);
  }

private:
  std::array<double, NumTunableParams> Values;
};

} // namespace tuner
} // namespace cswitch

#endif // CSWITCH_TUNER_PARAMETERSPACE_H

//===- ParameterSpace.cpp - Typed tuner parameter space -------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "tuner/ParameterSpace.h"

#include <cmath>

using namespace cswitch;
using namespace cswitch::tuner;

const std::array<ParamInfo, NumTunableParams> &cswitch::tuner::parameterSpace() {
  // Bounds are deliberately generous around the paper defaults: wide
  // enough for the search to find genuinely different regimes, narrow
  // enough that every point is a *sane* runtime configuration (a tuning
  // artifact can never install a pathological value; see also
  // validateThresholds).
  static const std::array<ParamInfo, NumTunableParams> Table = {{
      {ParamId::AdaptiveListThreshold, "adaptive.list.threshold", 8.0, 4096.0,
       80.0, true},
      {ParamId::AdaptiveSetThreshold, "adaptive.set.threshold", 8.0, 4096.0,
       40.0, true},
      {ParamId::AdaptiveMapThreshold, "adaptive.map.threshold", 8.0, 4096.0,
       50.0, true},
      {ParamId::ContextWindow, "context.window", 8.0, 2048.0, 100.0, true},
      {ParamId::ContextFinishedRatio, "context.finished_ratio", 0.1, 1.0, 0.6,
       false},
      {ParamId::ContextWideRangeFactor, "context.wide_range_factor", 1.0, 64.0,
       4.0, false},
  }};
  return Table;
}

const ParamInfo *cswitch::tuner::findParam(std::string_view Name) {
  for (const ParamInfo &Info : parameterSpace())
    if (Name == Info.Name)
      return &Info;
  return nullptr;
}

double cswitch::tuner::clampParam(const ParamInfo &Info, double Value) {
  if (!std::isfinite(Value))
    return Info.Default;
  if (Info.Integer)
    Value = std::nearbyint(Value);
  if (Value < Info.Min)
    return Info.Min;
  if (Value > Info.Max)
    return Info.Max;
  return Value;
}

ParameterSet::ParameterSet() {
  const auto &Space = parameterSpace();
  for (size_t I = 0; I != NumTunableParams; ++I)
    Values[static_cast<size_t>(Space[I].Id)] = Space[I].Default;
}

void ParameterSet::set(ParamId Id, double Value) {
  const ParamInfo &Info = parameterSpace()[static_cast<size_t>(Id)];
  Values[static_cast<size_t>(Id)] = clampParam(Info, Value);
}

AdaptiveThresholds ParameterSet::thresholds() const {
  AdaptiveThresholds T;
  T.List = static_cast<size_t>(get(ParamId::AdaptiveListThreshold));
  T.Set = static_cast<size_t>(get(ParamId::AdaptiveSetThreshold));
  T.Map = static_cast<size_t>(get(ParamId::AdaptiveMapThreshold));
  return T;
}

//===- AdaptiveConfig.cpp - Adaptive-collection transition policy --------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "collections/AdaptiveConfig.h"

using namespace cswitch;

namespace {

bool failCheck(std::string *Error, const std::string &Message) {
  if (Error) {
    if (!Error->empty())
      *Error += "; ";
    *Error += Message;
  }
  return false;
}

} // namespace

bool cswitch::validateThresholds(const AdaptiveThresholds &T,
                                 std::string *Error) {
  bool Ok = true;
  auto Check = [&](const char *Field, size_t Value) {
    if (Value == 0)
      Ok = failCheck(Error, std::string("adaptive threshold ") + Field +
                                " is 0 (must be >= 1)");
    else if (Value > MaxAdaptiveThreshold)
      Ok = failCheck(Error, std::string("adaptive threshold ") + Field +
                                " = " + std::to_string(Value) +
                                " exceeds the maximum " +
                                std::to_string(MaxAdaptiveThreshold));
  };
  Check("List", T.List);
  Check("Set", T.Set);
  Check("Map", T.Map);
  return Ok;
}

AdaptiveConfig &AdaptiveConfig::global() {
  static AdaptiveConfig Instance;
  return Instance;
}

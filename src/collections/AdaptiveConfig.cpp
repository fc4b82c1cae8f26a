//===- AdaptiveConfig.cpp - Adaptive-collection transition policy --------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "collections/AdaptiveConfig.h"

using namespace cswitch;

AdaptiveConfig &AdaptiveConfig::global() {
  static AdaptiveConfig Instance;
  return Instance;
}

//===- SelectionRule.cpp - Configurable selection rules ------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "core/SelectionRule.h"

#include <cassert>

using namespace cswitch;

SelectionRule SelectionRule::timeRule() {
  return {"Rtime", {{CostDimension::Time, 0.8}}};
}

SelectionRule SelectionRule::allocRule() {
  return {"Ralloc",
          {{CostDimension::Alloc, 0.8}, {CostDimension::Time, 1.2}}};
}

SelectionRule SelectionRule::energyRule() {
  return {"Renergy",
          {{CostDimension::Energy, 0.8}, {CostDimension::Time, 1.2}}};
}

SelectionRule SelectionRule::impossibleRule() {
  return {"Rimpossible", {{CostDimension::Time, 0.001}}};
}

bool SelectionRule::fromName(std::string_view Name, SelectionRule &Out) {
  if (Name == "rtime")
    Out = timeRule();
  else if (Name == "ralloc")
    Out = allocRule();
  else if (Name == "renergy")
    Out = energyRule();
  else if (Name == "impossible")
    Out = impossibleRule();
  else
    return false;
  return true;
}

CostDimension SelectionRule::primaryDimension() const {
  assert(!Criteria.empty() && "rule without criteria");
  return Criteria.front().Dimension;
}

//===- OperationKind.cpp - Critical collection operations ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "profile/OperationKind.h"

using namespace cswitch;

const char *cswitch::operationKindName(OperationKind Kind) {
  switch (Kind) {
  case OperationKind::Populate:
    return "populate";
  case OperationKind::Contains:
    return "contains";
  case OperationKind::Iterate:
    return "iterate";
  case OperationKind::IndexAccess:
    return "index";
  case OperationKind::Middle:
    return "middle";
  case OperationKind::Remove:
    return "remove";
  }
  return "unknown";
}

bool cswitch::parseOperationKind(std::string_view Name, OperationKind &Out) {
  for (OperationKind Kind : AllOperationKinds) {
    if (Name == operationKindName(Kind)) {
      Out = Kind;
      return true;
    }
  }
  return false;
}

//===- OperationKind.h - Critical collection operations --------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The critical collection operations the framework profiles and models.
/// Following the paper (§4.1.2), an operation is critical if at least one
/// variant implements it with linear-or-worse cost: populate, contains,
/// iterate and middle insert/remove. We additionally model index access
/// (linear on linked lists) and remove-by-value (linear on arrays, and the
/// operation on which the paper's own model mispredicts HashArrayList in
/// the multi-phase experiment, §5.1), so that experiment is reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_PROFILE_OPERATIONKIND_H
#define CSWITCH_PROFILE_OPERATIONKIND_H

#include <array>
#include <cstddef>
#include <string_view>

namespace cswitch {

/// Kinds of profiled (critical) collection operations.
enum class OperationKind : unsigned {
  Populate,    ///< add / push_back / put of one element.
  Contains,    ///< contains / containsKey / get lookup.
  Iterate,     ///< one full traversal of the collection.
  IndexAccess, ///< list positional read (at/get by index).
  Middle,      ///< insert or remove at an interior index.
  Remove,      ///< remove by value / key.
};

/// Number of OperationKind values.
constexpr size_t NumOperationKinds = 6;

/// All operation kinds, in enum order.
constexpr std::array<OperationKind, NumOperationKinds> AllOperationKinds = {
    OperationKind::Populate,    OperationKind::Contains,
    OperationKind::Iterate,     OperationKind::IndexAccess,
    OperationKind::Middle,      OperationKind::Remove};

/// Returns the stable lowercase name of \p Kind ("populate", ...).
const char *operationKindName(OperationKind Kind);

/// Parses an operation kind name; returns false if \p Name is unknown.
bool parseOperationKind(std::string_view Name, OperationKind &Out);

} // namespace cswitch

#endif // CSWITCH_PROFILE_OPERATIONKIND_H

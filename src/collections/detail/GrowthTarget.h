//===- GrowthTarget.h - One-shot growth target helpers ----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The growth step of array-backed variants under a one-shot growth
/// target (DESIGN.md §4.2): reserve(N, GrowTo) leaves GrowTo in the
/// instance, and the first growth past the reservation makes room for
/// GrowTo elements at once and clears it. Every later growth is the
/// array's own doubling. A target of 0 leaves the variant exactly as it
/// grows without one. Internal to the collections library.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_GROWTHTARGET_H
#define CSWITCH_COLLECTIONS_DETAIL_GROWTHTARGET_H

#include <cstddef>
#include <utility>

namespace cswitch {
namespace detail {

/// Capacity an array-backed variant reserves before one more element
/// goes into an array of \p Size elements and \p Capacity slots, or 0 to
/// leave the growth to the array. A full array consumes the target and
/// makes room for \p GrowTo elements when that is more than it holds;
/// otherwise an array with no storage yet takes \p Initial slots.
inline size_t arrayGrowth(size_t Size, size_t Capacity, size_t &GrowTo,
                          size_t Initial) {
  if (Size != Capacity)
    return 0;
  if (size_t Target = std::exchange(GrowTo, size_t(0)); Target > Size)
    return Target;
  return Capacity ? 0 : Initial;
}

/// Makes room in the vector \p Data for one more element (see
/// arrayGrowth).
template <typename VectorT>
void growForOne(VectorT &Data, size_t &GrowTo, size_t Initial) {
  if (size_t Room = arrayGrowth(Data.size(), Data.capacity(), GrowTo, Initial))
    Data.reserve(Room);
}

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_GROWTHTARGET_H

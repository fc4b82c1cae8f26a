//===- CostModel.h - Per-variant operation cost models ----------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The performance model of the paper (§3.1.1, §4.1): for every cost
/// dimension D, collection variant V and critical operation op, a cubic
/// polynomial cost_op,V(s) of the maximum collection size s. The model
/// also implements the paper's total-cost metric
///
///   tc_W(V) = sum_op N_op,W * cost_op,V(s_W)
///
/// over a workload profile W, which allocation contexts aggregate over
/// all monitored instances to obtain TC_D(V).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_MODEL_COSTMODEL_H
#define CSWITCH_MODEL_COSTMODEL_H

#include "collections/Variants.h"
#include "profile/WorkloadProfile.h"
#include "support/Polynomial.h"

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cswitch {

/// Cost dimensions the framework optimizes (paper §3.1.1: "multiple cost
/// dimensions such as execution time and memory overhead"; energy is the
/// paper's §7 future-work dimension, derived from time and alloc — see
/// NanojoulesPerNanosecond below).
enum class CostDimension : unsigned {
  Time,   ///< Nanoseconds per operation.
  Alloc,  ///< Bytes allocated per operation.
  Energy, ///< Nanojoules per operation (derived from Time and Alloc).
  /// Extra nanoseconds per operation as a polynomial of the *observed
  /// thread count* (not the collection size): the synchronization
  /// penalty of the concurrent tier. Empty for sequential variants; for
  /// concurrent variants the polynomial is shaped so it evaluates to ~0
  /// at one thread and grows with contention (DESIGN.md §11).
  Contention,
};

/// Number of CostDimension values.
constexpr size_t NumCostDimensions = 4;

/// All cost dimensions, in enum order.
constexpr std::array<CostDimension, NumCostDimensions> AllCostDimensions = {
    CostDimension::Time, CostDimension::Alloc, CostDimension::Energy,
    CostDimension::Contention};

/// The dimensions a model stores, sets and serializes: every one but
/// Energy, which PerformanceModel derives.
constexpr std::array<CostDimension, NumCostDimensions - 1>
    StoredCostDimensions = {CostDimension::Time, CostDimension::Alloc,
                            CostDimension::Contention};

/// The energy dimension is derived, never measured or stored (DESIGN.md
/// §1: no RAPL or other energy counters). A linear power model
///
///   energy_op,V(s) = P · time_op,V(s) + E · alloc_op,V(s)
///
/// captures the first-order physics: active-core power burns joules in
/// proportion to runtime, and memory traffic costs a roughly fixed
/// energy per byte. P is a ~3.5 W active core, E ~20 pJ per allocated
/// byte (DRAM write plus allocator bookkeeping), so energy mostly tracks
/// time but penalizes allocation-heavy variants, which is where Renergy
/// departs from Rtime.
inline constexpr double NanojoulesPerNanosecond = 3.5; ///< P (watts).
inline constexpr double NanojoulesPerByte = 0.02;      ///< E.

/// Longest polynomial a model row may carry. The model builder fits
/// cubics (4 coefficients); 16 leaves room while keeping a hostile model
/// file from forcing large allocations.
inline constexpr size_t MaxModelCoefficients = 16;

/// Returns "time", "alloc", "energy" or "contention".
const char *costDimensionName(CostDimension Dim);

/// Parses a cost dimension name; returns false if unknown.
bool parseCostDimension(std::string_view Name, CostDimension &Out);

/// Hardware-specific cost polynomials for every (variant, operation,
/// dimension) triple.
///
/// Built either by the ModelBuilder (benchmarking the target machine,
/// paper §4.1) or loaded from a serialized model file; a built-in default
/// model ships with the library (DefaultModel.h) so the framework works
/// out of the box.
class PerformanceModel {
public:
  PerformanceModel();

  /// Installs the cost polynomial for one triple. Setting Time or Alloc
  /// also re-derives the cell's Energy polynomial as
  /// P·time + E·alloc (empty when both are empty); \p Dim must not be
  /// Energy, which nothing else writes.
  void setCost(VariantId Variant, OperationKind Op, CostDimension Dim,
               Polynomial Cost);

  /// Returns the cost polynomial of one triple (zero polynomial if never
  /// set).
  const Polynomial &cost(VariantId Variant, OperationKind Op,
                         CostDimension Dim) const;

  /// Predicted cost of one \p Op execution on a collection of maximum
  /// size \p Size (clamped to be non-negative).
  double operationCost(VariantId Variant, OperationKind Op,
                       CostDimension Dim, double Size) const;

  /// The paper's tc_W(V): predicted total cost of executing the workload
  /// \p Profile on variant \p Variant, using the profile's maximum size
  /// as the size argument of every operation model (a deliberate
  /// overestimate, §3.1.1).
  double totalCost(VariantId Variant, const WorkloadProfile &Profile,
                   CostDimension Dim) const;

  /// True if any polynomial is set for \p Variant. O(1): coverage is
  /// tracked as a per-abstraction bitmap maintained by setCost()/load()
  /// instead of re-scanning every (op, dimension) polynomial.
  bool hasVariant(VariantId Variant) const;

  /// Bitmap of covered variants of \p Kind (bit V set iff variant V has
  /// at least one polynomial).
  uint32_t coverageMask(AbstractionKind Kind) const {
    return Coverage[static_cast<size_t>(Kind)];
  }

  /// Serializes the stored dimensions as a line-oriented text document
  /// (no energy rows: load() re-derives them). Each of \p Comments
  /// becomes a `# ` line after the header.
  void save(std::ostream &OS,
            const std::vector<std::string> &Comments = {}) const;

  /// Parses a model produced by save(), replacing this model's contents.
  /// All or nothing: \returns false and leaves the model unchanged on
  /// malformed input: unknown names, energy rows, rows with no or more
  /// than MaxModelCoefficients coefficients, duplicate (abstraction,
  /// variant, operation, dimension) rows, or a coefficient that does not
  /// parse, or overflows a double, before the end of its row (there is
  /// no NaN or Inf spelling). When \p Error is non-null it receives a
  /// line-numbered diagnostic on failure. The accepted language is
  /// spelled out in DESIGN.md §12.1.
  bool load(std::istream &IS, std::string *Error = nullptr);

  /// load() over a document already in memory: one pass over its lines,
  /// no copy of any row.
  bool loadText(std::string_view Document, std::string *Error = nullptr);

  /// Convenience wrappers over save()/loadText() for files. saveToFile
  /// installs through codec::installFile, so a reader never sees a
  /// partly written model; loadFromFile reads the file in one sized
  /// read. Both return false on I/O or parse failure.
  bool saveToFile(const std::string &Path,
                  const std::vector<std::string> &Comments = {},
                  std::string *Error = nullptr) const;
  bool loadFromFile(const std::string &Path, std::string *Error = nullptr);

  bool operator==(const PerformanceModel &Other) const = default;

private:
  size_t indexOf(VariantId Variant, OperationKind Op,
                 CostDimension Dim) const;

  /// Dense storage: abstraction-major, then variant, operation, dimension.
  std::vector<Polynomial> Costs;
  /// Start offset of each abstraction in Costs.
  std::array<size_t, NumAbstractionKinds> AbstractionOffsets;
  /// Per-abstraction coverage bitmaps (bit V set iff variant V has at
  /// least one non-empty polynomial); kept in sync by setCost().
  std::array<uint32_t, NumAbstractionKinds> Coverage = {};
};

} // namespace cswitch

#endif // CSWITCH_MODEL_COSTMODEL_H

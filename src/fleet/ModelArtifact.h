//===- ModelArtifact.h - Versioned recalibrated-model artifact --*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cswitch-model-v2` binary artifact a fleet replica produces when
/// it recalibrates its performance model on device (DESIGN.md §12): the
/// full set of cost polynomials plus the provenance a consumer needs to
/// decide whether the artifact applies to it — which host fitted it,
/// when, and how well it predicted the held-out trace slice.
///
/// Document layout (wire primitives from support/Codec.h: LEB128
/// varints, CRC-framed sections, doubles as 8-byte little-endian
/// IEEE 754):
///
///   magic "cswitch-model-v2" (16 bytes)
///   varint version (2)
///   varint header payload length | header bytes | CRC32 (4 bytes LE)
///     varint fingerprint length | fingerprint bytes
///     8 bytes fit timestamp (unix seconds)
///     8 bytes holdout residual (double)
///   varint row count
///   per row: varint payload length | payload bytes | CRC32 (4 bytes LE)
///     1 byte abstraction kind
///     varint variant index
///     varint operation kind
///     1 byte cost dimension
///     varint coefficient count | coefficients (8 bytes each)
///     8 bytes per-row residual (double)
///
/// The encoding is canonical — rows ordered strictly ascending by
/// (Kind, Variant, Op, Dim) — and the decoder is total: truncation at
/// any offset, bad magic, unknown versions, CRC mismatches, out-of-range
/// enums, non-finite doubles, oversized polynomials, disordered or
/// duplicate rows, and trailing bytes are all rejected with the output
/// left empty. Network peers and the recalibrator's promotion gate both
/// depend on that totality.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_FLEET_MODELARTIFACT_H
#define CSWITCH_FLEET_MODELARTIFACT_H

#include "model/CostModel.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cswitch {
namespace fleet {

/// Largest coefficient vector a row may carry. The model builder fits
/// cubics (4 coefficients); 16 leaves room for growth while keeping a
/// malicious row from forcing large allocations.
constexpr size_t MaxArtifactCoefficients = 16;

/// A recalibrated performance model plus its provenance header.
struct ModelArtifact {
  /// One (variant, operation, dimension) cost polynomial with the
  /// root-mean-square residual of its fit (0 when carried over from the
  /// incumbent unmeasured).
  struct Row {
    AbstractionKind Kind = AbstractionKind::List;
    unsigned Variant = 0;
    OperationKind Op = OperationKind::Populate;
    CostDimension Dim = CostDimension::Time;
    Polynomial Cost;
    double Residual = 0.0;

    /// Canonical document order: ascending (Kind, Variant, Op, Dim).
    static bool orderedBefore(const Row &A, const Row &B);

    bool operator==(const Row &Other) const = default;
  };

  /// Host the fit ran on (see hostFingerprint()); consumers refuse
  /// artifacts fitted elsewhere.
  std::string HostFingerprint;
  /// Unix seconds of the fit (caller-provided — the artifact layer
  /// never reads the clock itself).
  uint64_t FitTimestamp = 0;
  /// Mean relative prediction error of the candidate model on the
  /// held-out trace slice at promotion time.
  double HoldoutResidual = 0.0;
  std::vector<Row> Rows;

  bool operator==(const ModelArtifact &Other) const = default;
};

/// Identity of this host for artifact provenance: node name, machine
/// architecture and hardware concurrency ("node/x86_64/c32"). Stable
/// across runs on one machine; distinct machines (or core-count
/// changes) produce distinct fingerprints.
std::string hostFingerprint();

/// Serializes \p Artifact into the canonical `cswitch-model-v2`
/// encoding (rows are sorted; duplicate (Kind, Variant, Op, Dim) keys
/// are a caller bug and produce a document the decoder rejects).
std::string encodeModelArtifact(const ModelArtifact &Artifact);

/// Parses a `cswitch-model-v2` document. \returns true on success;
/// false on any malformation, with \p Out cleared and \p Error (when
/// non-null) describing the first problem found.
bool decodeModelArtifact(std::string_view Bytes, ModelArtifact &Out,
                         std::string *Error = nullptr);

/// Atomically replaces \p Path with the encoding of \p Artifact
/// through codec::installFile, so a crash mid-install never leaves a
/// torn model beside the store.
bool writeModelArtifactToFile(const std::string &Path,
                              const ModelArtifact &Artifact,
                              std::string *Error = nullptr);

/// Reads the artifact at \p Path.
bool readModelArtifactFromFile(const std::string &Path, ModelArtifact &Out,
                               std::string *Error = nullptr);

/// Snapshots every non-empty polynomial of \p Model into artifact rows
/// (residuals zero; header fields left for the caller to fill).
ModelArtifact artifactFromModel(const PerformanceModel &Model);

/// Materializes the artifact's rows as a PerformanceModel.
PerformanceModel modelFromArtifact(const ModelArtifact &Artifact);

} // namespace fleet
} // namespace cswitch

#endif // CSWITCH_FLEET_MODELARTIFACT_H

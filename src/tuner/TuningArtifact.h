//===- TuningArtifact.h - Versioned tuned-config artifact -------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned `cswitch-tuning-v2` artifact: the winning parameter set
/// of an offline tuner run, plus the provenance needed to trust it (host
/// fingerprint, search sweeps and evaluations, corpus digest,
/// winner-vs-baseline fitness). Built on support/Codec.h like every
/// other binary document: CRC-framed records, a total decoder that
/// rejects every malformed input without crashing, and crash-safe
/// installs.
///
/// Layout:
///
///   "cswitch-tuning-v2"            17-byte magic
///   varint   format version (2)
///   varint   header payload length
///   header   fingerprint, sweeps, evaluations, corpus digest,
///            objective weights, winner/baseline fitness
///   u32      CRC-32 of the header payload
///   varint   row count (must equal NumTunableParams)
///   rows     { varint payload length | name, f64 value | u32 CRC }
///            in strictly ascending name order
///
/// The decoder is semantic, not just structural: rows must cover exactly
/// the known parameter space (unknown names, duplicates, gaps rejected),
/// every value must be finite, within the parameter's bounds, and
/// integral for integer-typed parameters. A decoded artifact therefore
/// always converts to a valid ParameterSet — a corrupt or hand-edited
/// file can never install a pathological configuration.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_TUNER_TUNINGARTIFACT_H
#define CSWITCH_TUNER_TUNINGARTIFACT_H

#include "tuner/ParameterSpace.h"

#include <string>
#include <string_view>
#include <vector>

namespace cswitch {
namespace tuner {

/// A tuned configuration with its provenance.
struct TuningArtifact {
  /// One tuned parameter (stable name from parameterSpace()).
  struct Row {
    std::string Name;
    double Value = 0.0;
  };

  /// "node/arch/cN" of the machine the tuner ran on (hostFingerprint()
  /// in support/Topology.h). Informational: artifacts apply anywhere,
  /// but telemetry surfaces a foreign fingerprint.
  std::string HostFingerprint;
  /// Coordinate sweeps the search ran.
  uint64_t Sweeps = 0;
  /// Fitness evaluations performed (cache misses, not grid points).
  uint64_t Evaluations = 0;
  /// Digest of the trace corpus the fitness replayed ("crc32:XXXXXXXX"
  /// over the serialized traces) — ties the artifact to its workload.
  std::string CorpusDigest;
  /// Scalarization weights of the multi-objective fitness.
  double TimeWeight = 1.0;
  double AllocWeight = 0.25;
  /// Fitness of the winner and of the paper-default genome on the same
  /// corpus (lower is better; Winner <= Baseline by construction).
  double WinnerFitness = 0.0;
  double BaselineFitness = 0.0;
  /// The tuned parameters. Encoding canonicalizes to ascending name
  /// order regardless of this vector's order.
  std::vector<Row> Rows;
};

/// Serializes \p Artifact into the canonical `cswitch-tuning-v2` byte
/// string (rows name-sorted; byte-identical for equal artifacts).
std::string encodeTuningArtifact(const TuningArtifact &Artifact);

/// Total decoder: \returns true and fills \p Out on success; on any
/// malformed input returns false, resets \p Out, and describes the
/// problem in \p Error (when non-null). Never crashes on untrusted
/// bytes.
bool decodeTuningArtifact(std::string_view Bytes, TuningArtifact &Out,
                          std::string *Error = nullptr);

/// Atomically replaces \p Path with the serialized artifact through
/// codec::installFile.
bool writeTuningArtifactToFile(const std::string &Path,
                               const TuningArtifact &Artifact,
                               std::string *Error = nullptr);

/// Reads and decodes \p Path (total: corrupt files report false).
bool readTuningArtifactFromFile(const std::string &Path, TuningArtifact &Out,
                                std::string *Error = nullptr);

/// Builds the artifact rows from \p Params (provenance fields are left
/// for the caller to fill).
TuningArtifact artifactFromParams(const ParameterSet &Params);

/// Converts decoded rows back into a ParameterSet. With an artifact
/// that came through decodeTuningArtifact this cannot fail; hand-built
/// artifacts with unknown names or wild values report false (and
/// \p Error) instead of installing garbage. Values are clamped into
/// bounds on the way in.
bool paramsFromArtifact(const TuningArtifact &Artifact, ParameterSet &Out,
                        std::string *Error = nullptr);

} // namespace tuner
} // namespace cswitch

#endif // CSWITCH_TUNER_TUNINGARTIFACT_H

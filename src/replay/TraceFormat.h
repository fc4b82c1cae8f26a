//===- TraceFormat.h - Binary operation-trace format ------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact versioned binary format (`cswitch-optrace-v1`) for
/// persisted operation traces: the operation-level record of a workload
/// captured by the TraceRecorder and consumed by the Replayer and the
/// PolicySimulator, and aggregated (aggregateTrace) for the offline
/// advisor (§6). Unlike per-site aggregate counters, an operation trace
/// preserves the order, interleaving and per-operation context of the
/// original run, which is what deterministic replay and what-if policy
/// simulation need (MapReplay-style trace-driven benchmark generation):
/// one recorded format drives every offline tool.
///
/// Layout (wire primitives from support/Codec.h: all integers LEB128
/// varints, deltas zigzag-encoded):
///
///   "cswitch-optrace-"  16-byte magic prefix
///   version             varint (currently 1; readers reject others)
///   site-count          varint
///   per site:           name-length, name bytes, abstraction (u8),
///                       declared-variant index (varint)
///   ops-dropped         varint   (recorder loss; observability)
///   instances-sampled   varint
///   instances-skipped   varint
///   op-count            varint
///   per op:             packed u8 (kind << 3 | class),
///                       zigzag site delta, zigzag instance delta,
///                       size (varint), zigzag time-delta (nanoseconds)
///
/// Encoding is canonical: decode(encode(T)) == T and re-encoding the
/// decoded trace reproduces the exact bytes — the round-trip property
/// the format tests pin down.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_REPLAY_TRACEFORMAT_H
#define CSWITCH_REPLAY_TRACEFORMAT_H

#include "collections/Variants.h"
#include "profile/OperationKind.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cswitch {

/// Operation kinds at trace granularity. Unlike OperationKind (the six
/// *aggregated* profiling categories), these name the facade method that
/// executed, because replay must re-execute — not just count — the
/// operation. Instance life-cycle boundaries are ops too, so a trace is
/// a single totally-ordered stream.
enum class TraceOpKind : uint8_t {
  InstanceBegin, ///< A collection instance was created at the site.
  InstanceEnd,   ///< The instance finished its life-cycle.
  Populate,      ///< list add / set add / map put.
  Contains,      ///< contains / containsKey / get lookup.
  Iterate,       ///< One full traversal.
  IndexGet,      ///< List positional read.
  IndexSet,      ///< List positional write.
  InsertAt,      ///< List interior insert.
  RemoveAt,      ///< List positional remove.
  RemoveValue,   ///< Remove by value / key.
  Clear,         ///< clear().
};

/// Number of TraceOpKind values.
constexpr size_t NumTraceOpKinds = 11;

/// Returns a stable lowercase name ("begin", "populate", ...).
const char *traceOpKindName(TraceOpKind Kind);

/// Maps a trace op to the profiling category it is counted under, or
/// nullopt for ops outside the §4.1.2 critical set (life-cycle markers
/// and clear).
std::optional<OperationKind> toOperationKind(TraceOpKind Kind);

/// The key/index class of one operation: enough information to
/// re-synthesize an equivalent operand deterministically, without
/// persisting application values (traces stay compact and leak no data).
enum class OpClass : uint8_t {
  None,     ///< No operand context (populate new key, iterate, ...).
  Hit,      ///< Lookup/remove found its key; populate hit an existing key.
  Miss,     ///< Lookup/remove missed.
  Front,    ///< Positional op at index 0.
  Interior, ///< Positional op at an interior index.
  Back,     ///< Positional op at the last index (or append position).
};

/// Number of OpClass values.
constexpr size_t NumOpClasses = 6;

/// Returns a stable lowercase name ("none", "hit", ...).
const char *opClassName(OpClass Class);

/// Classifies a positional \p Index against collection \p Size.
inline OpClass classifyIndex(size_t Index, size_t Size) {
  if (Index == 0)
    return OpClass::Front;
  if (Index + 1 >= Size)
    return OpClass::Back;
  return OpClass::Interior;
}

/// One recorded operation.
struct TraceOp {
  uint32_t Site = 0;     ///< Index into OpTrace::Sites.
  uint32_t Instance = 0; ///< Recorder-assigned instance id.
  TraceOpKind Kind = TraceOpKind::InstanceBegin;
  OpClass Class = OpClass::None;
  uint32_t Size = 0;      ///< Collection size after the op (before, for
                          ///< nothing: clear records 0).
  uint64_t TimeNanos = 0; ///< Nanoseconds since recording started.

  bool operator==(const TraceOp &Other) const = default;
};

/// One recorded allocation site.
struct TraceSite {
  std::string Name;
  AbstractionKind Kind = AbstractionKind::List;
  unsigned DeclaredVariantIndex = 0;

  bool operator==(const TraceSite &Other) const = default;
};

/// A complete operation trace: the site table, the totally-ordered
/// operation stream, and the recorder's loss/sampling accounting.
struct OpTrace {
  std::vector<TraceSite> Sites;
  std::vector<TraceOp> Ops;
  uint64_t OpsDropped = 0;        ///< Ops lost to the bounded buffer.
  uint64_t InstancesSampled = 0;  ///< Instances recorded.
  uint64_t InstancesSkipped = 0;  ///< Instances passed over by sampling.

  bool operator==(const OpTrace &Other) const = default;

  /// Wall-clock span covered by the recorded ops (max - min timestamp).
  uint64_t durationNanos() const;
};

/// Serializes \p Trace into the cswitch-optrace-v1 byte string.
std::string encodeTrace(const OpTrace &Trace);

/// Parses a cswitch-optrace document. Returns false on malformed,
/// truncated or version-mismatched input; \p Error (when non-null)
/// receives a one-line diagnosis. \p Out is left empty on failure.
bool decodeTrace(std::string_view Bytes, OpTrace &Out,
                 std::string *Error = nullptr);

/// Atomically replaces \p Path with the encoding of \p Trace through
/// codec::installFile, so a crash never leaves a torn trace.
bool writeTraceToFile(const std::string &Path, const OpTrace &Trace,
                      std::string *Error = nullptr);

/// Stream and file readers; `readTrace` consumes the whole stream (so
/// `-` pipelines work). Both return false on I/O or parse failure, with
/// \p Out left empty.
bool readTrace(std::istream &IS, OpTrace &Out, std::string *Error = nullptr);
bool readTraceFromFile(const std::string &Path, OpTrace &Out,
                       std::string *Error = nullptr);

} // namespace cswitch

#endif // CSWITCH_REPLAY_TRACEFORMAT_H

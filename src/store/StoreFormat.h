//===- StoreFormat.h - Binary selection-store format ------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cswitch-store-v1` binary format of the persistent selection
/// store: per allocation site, the aggregated workload summary and the
/// converged variant decision of previous process runs.
///
/// Document layout (wire primitives from support/Codec.h: LEB128
/// varints and CRC-framed sections):
///
///   magic "cswitch-store-v1" (16 bytes)
///   varint version (1)
///   varint site count
///   per site: varint payload length | payload bytes | CRC32 (4 bytes LE)
///
/// Each site payload is self-delimiting and individually checksummed
/// (IEEE CRC32 of the payload bytes) so a torn write corrupts exactly
/// one record, never the reader:
///
///   varint name length | name bytes
///   varint rule length | rule bytes       (selection-rule name)
///   1 byte abstraction kind
///   varint decision (variant index)
///   varint runs | varint instances | varint max size
///   NumOperationKinds varint operation counts
///
/// The encoding is canonical: sites are ordered strictly ascending by
/// (Name, Rule, Kind) and decode(encode(S)) == S reproduces the exact
/// input bytes. The decoder is total — truncation at any offset, bad
/// magic, unknown versions, CRC mismatches, out-of-range kinds or
/// decisions, disordered or duplicate sites, and trailing bytes are all
/// rejected with the output left empty.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_STORE_STOREFORMAT_H
#define CSWITCH_STORE_STOREFORMAT_H

#include "collections/Variants.h"
#include "profile/OperationKind.h"

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cswitch {

/// One persisted allocation site: the aggregate of every contributing
/// run, decayed by the SelectionStore's merge policy.
struct StoreSite {
  std::string Name;        ///< Allocation-site name.
  std::string Rule;        ///< Selection-rule name the decision was made under.
  AbstractionKind Kind = AbstractionKind::List;
  unsigned Decision = 0;   ///< Converged variant index.
  uint64_t Runs = 0;       ///< Process runs that contributed.
  uint64_t Instances = 0;  ///< Monitored instances aggregated (decayed).
  uint64_t MaxSize = 0;    ///< Largest maximum size ever observed.
  std::array<uint64_t, NumOperationKinds> Counts = {}; ///< Decayed op counts.

  bool operator==(const StoreSite &Other) const = default;

  /// Canonical document order: ascending (Name, Rule, Kind).
  static bool orderedBefore(const StoreSite &A, const StoreSite &B) {
    if (A.Name != B.Name)
      return A.Name < B.Name;
    if (A.Rule != B.Rule)
      return A.Rule < B.Rule;
    return A.Kind < B.Kind;
  }
};

/// Serializes \p Sites into the canonical `cswitch-store-v1` encoding.
/// The input order does not matter (a sorted copy of the indices is
/// encoded); duplicate (Name, Rule, Kind) keys are a caller bug and
/// produce a document the decoder rejects.
std::string encodeStore(const std::vector<StoreSite> &Sites);

/// Parses a `cswitch-store-v1` document. \returns true on success;
/// false on any malformation, with \p Out cleared and \p Error (when
/// non-null) describing the first problem found.
bool decodeStore(std::string_view Bytes, std::vector<StoreSite> &Out,
                 std::string *Error = nullptr);

/// Atomically replaces \p Path with the encoding of \p Sites through
/// codec::installFile, so a crash mid-write never leaves a torn store
/// behind.
bool writeStoreToFile(const std::string &Path,
                      const std::vector<StoreSite> &Sites,
                      std::string *Error = nullptr);

/// Reads one store document from \p IS (consumes the whole stream).
bool readStore(std::istream &IS, std::vector<StoreSite> &Out,
               std::string *Error = nullptr);

/// Reads the store document at \p Path.
bool readStoreFromFile(const std::string &Path, std::vector<StoreSite> &Out,
                       std::string *Error = nullptr);

} // namespace cswitch

#endif // CSWITCH_STORE_STOREFORMAT_H

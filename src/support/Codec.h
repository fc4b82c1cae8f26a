//===- Codec.h - Shared binary-format primitives ----------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire primitives and the install discipline shared by every binary
/// document of the framework: `cswitch-store-v1` (store/StoreFormat.h),
/// `cswitch-optrace-v1` (replay/TraceFormat.h) and `cswitch-tuning-v2`
/// (tuner/TuningArtifact.h). Each format keeps only its payload schema,
/// its range checks and its canonical-order rule; everything below is
/// defined once here (DESIGN.md §5.1). The text performance model
/// (model/CostModel.h) uses only installFile and readFile.
///
///  - Integers are LEB128 varints (at most 10 bytes), signed deltas
///    zigzag-encoded; fixed-width fields are 8-byte little-endian u64 or
///    IEEE 754 f64 bit patterns.
///  - A document opens with its magic bytes and a varint version.
///  - A CRC-framed section is `varint length | payload | CRC32 (4 bytes
///    LE)` with the IEEE CRC32 of the payload, so a torn or flipped
///    record is caught without trusting its contents.
///  - Files are installed crash-safely: a unique temporary sibling is
///    written, fsync'ed and renamed over the destination.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_CODEC_H
#define CSWITCH_SUPPORT_CODEC_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace cswitch {
namespace codec {

/// Pre-allocation guard while decoding untrusted counts: never reserve
/// more than this many elements up front; growth beyond it must be paid
/// for by actual input bytes.
constexpr size_t MaxReserve = 1 << 16;

/// The identity of one document format.
struct Format {
  std::string_view Magic; ///< Leading bytes of every document.
  std::string_view Name;  ///< Document name used in diagnostics.
  uint64_t Version;       ///< The only version the decoder accepts.
};

/// IEEE CRC32 (reflected polynomial 0xEDB88320) of \p Bytes.
uint32_t crc32(std::string_view Bytes);

constexpr uint64_t zigzag(int64_t Value) {
  return (static_cast<uint64_t>(Value) << 1) ^
         static_cast<uint64_t>(Value >> 63);
}

constexpr int64_t unzigzag(uint64_t Value) {
  return static_cast<int64_t>(Value >> 1) ^ -static_cast<int64_t>(Value & 1);
}

void putVarint(std::string &Out, uint64_t Value);
/// Varint length followed by the bytes of \p Bytes.
void putString(std::string &Out, std::string_view Bytes);
void putU64(std::string &Out, uint64_t Value);
void putF64(std::string &Out, double Value);
/// Appends `magic | varint version`.
void putHeader(std::string &Out, const Format &Doc);
/// Appends `varint length | Payload | crc32(Payload) LE`.
void putSection(std::string &Out, std::string_view Payload);

/// Bounded reader over an encoded document. Every accessor returns
/// false when the input is too short or malformed.
class Reader {
public:
  explicit Reader(std::string_view Bytes)
      : Cur(Bytes.data()), End(Cur + Bytes.size()) {}

  /// LEB128 varint; more than 10 bytes is corrupt.
  bool varint(uint64_t &Out);
  bool byte(uint8_t &Out);
  bool view(size_t N, std::string_view &Out);
  /// Varint length (at most \p MaxLen) followed by that many bytes.
  bool string(std::string &Out, uint64_t MaxLen = UINT64_MAX);
  bool u64(uint64_t &Out);
  bool f64(double &Out);

  bool atEnd() const { return Cur == End; }

private:
  size_t remaining() const { return static_cast<size_t>(End - Cur); }

  const char *Cur;
  const char *End;
};

/// Stores \p Message into \p Error (when non-null). \returns false.
bool fail(std::string *Error, std::string Message);

/// Reads \p Doc's magic and version from the front of \p In. On failure
/// \p Error names the problem ("bad magic", "truncated version",
/// "unsupported <name> version N (expected V)").
bool readHeader(Reader &In, const Format &Doc, std::string *Error);

/// Reads one CRC-framed section from \p In; \p Payload views its
/// checked bytes. On failure \p Error reads "truncated <What> record" or
/// "<What> crc mismatch".
bool readSection(Reader &In, std::string_view What,
                 std::string_view &Payload, std::string *Error);

/// Runs \p Decode and resets \p Out to a value-initialized T when it
/// fails, so a rejected document never leaves partial output behind.
template <typename T, typename DecodeFn>
bool decodeOrReset(T &Out, DecodeFn &&Decode) {
  Out = T();
  if (Decode())
    return true;
  Out = T();
  return false;
}

/// Atomically replaces \p Path with \p Bytes: the bytes go to a unique
/// temporary sibling (`<Path>.tmp.XXXXXX`), are fsync'ed, and the
/// sibling is renamed over \p Path, so a crash never leaves a torn file
/// and concurrent installers never share a temporary. \p Noun names the
/// document in diagnostics ("cannot replace <Noun> file").
bool installFile(const std::string &Path, std::string_view Bytes,
                 std::string_view Noun, std::string *Error = nullptr);

/// Reads the rest of \p IS into \p Out. \returns false on an I/O error.
bool readAll(std::istream &IS, std::string &Out);

/// Reads the whole file at \p Path into \p Out, to its end: one read
/// request sized by the file's length, then whatever follows it (all of
/// a pipe). \p Noun names the document in diagnostics ("cannot open
/// <Noun> file").
bool readFile(const std::string &Path, std::string &Out,
              std::string_view Noun, std::string *Error = nullptr);

} // namespace codec
} // namespace cswitch

#endif // CSWITCH_SUPPORT_CODEC_H

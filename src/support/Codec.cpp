//===- Codec.cpp - Shared binary-format primitives ------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/Codec.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define CSWITCH_CODEC_POSIX 1
#endif

using namespace cswitch;
using namespace cswitch::codec;

uint32_t codec::crc32(std::string_view Bytes) {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T;
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int Bit = 0; Bit != 8; ++Bit)
        C = (C >> 1) ^ (0xEDB88320u & (0u - (C & 1u)));
      T[I] = C;
    }
    return T;
  }();
  uint32_t Crc = 0xFFFFFFFFu;
  for (char Ch : Bytes)
    Crc = (Crc >> 8) ^ Table[(Crc ^ static_cast<uint8_t>(Ch)) & 0xFFu];
  return Crc ^ 0xFFFFFFFFu;
}

void codec::putVarint(std::string &Out, uint64_t Value) {
  while (Value >= 0x80) {
    Out += static_cast<char>((Value & 0x7f) | 0x80);
    Value >>= 7;
  }
  Out += static_cast<char>(Value);
}

void codec::putString(std::string &Out, std::string_view Bytes) {
  putVarint(Out, Bytes.size());
  Out += Bytes;
}

void codec::putU64(std::string &Out, uint64_t Value) {
  for (int Byte = 0; Byte != 8; ++Byte)
    Out += static_cast<char>((Value >> (8 * Byte)) & 0xFFu);
}

void codec::putF64(std::string &Out, double Value) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(Value));
  std::memcpy(&Bits, &Value, sizeof(Bits));
  putU64(Out, Bits);
}

void codec::putHeader(std::string &Out, const Format &Doc) {
  Out += Doc.Magic;
  putVarint(Out, Doc.Version);
}

void codec::putSection(std::string &Out, std::string_view Payload) {
  putString(Out, Payload);
  uint32_t Crc = crc32(Payload);
  for (int Byte = 0; Byte != 4; ++Byte)
    Out += static_cast<char>((Crc >> (8 * Byte)) & 0xFFu);
}

bool Reader::varint(uint64_t &Out) {
  Out = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    if (Cur == End)
      return false;
    uint8_t Byte = static_cast<uint8_t>(*Cur++);
    Out |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return true;
  }
  return false; // More than 10 continuation bytes: corrupt.
}

bool Reader::byte(uint8_t &Out) {
  if (Cur == End)
    return false;
  Out = static_cast<uint8_t>(*Cur++);
  return true;
}

bool Reader::view(size_t N, std::string_view &Out) {
  if (remaining() < N)
    return false;
  Out = std::string_view(Cur, N);
  Cur += N;
  return true;
}

bool Reader::string(std::string &Out, uint64_t MaxLen) {
  uint64_t Len = 0;
  std::string_view View;
  if (!varint(Len) || Len > MaxLen || !view(Len, View))
    return false;
  Out.assign(View);
  return true;
}

bool Reader::u64(uint64_t &Out) {
  if (remaining() < 8)
    return false;
  Out = 0;
  for (int Byte = 0; Byte != 8; ++Byte)
    Out |= static_cast<uint64_t>(static_cast<uint8_t>(Cur[Byte]))
           << (8 * Byte);
  Cur += 8;
  return true;
}

bool Reader::f64(double &Out) {
  uint64_t Bits = 0;
  if (!u64(Bits))
    return false;
  std::memcpy(&Out, &Bits, sizeof(Out));
  return true;
}

bool codec::fail(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

bool codec::readHeader(Reader &In, const Format &Doc, std::string *Error) {
  std::string Name(Doc.Name);
  std::string_view Magic;
  if (!In.view(Doc.Magic.size(), Magic) || Magic != Doc.Magic)
    return fail(Error, "not a " + Name + " document (bad magic)");
  uint64_t Version = 0;
  if (!In.varint(Version))
    return fail(Error, "truncated version");
  if (Version != Doc.Version)
    return fail(Error, "unsupported " + Name + " version " +
                           std::to_string(Version) + " (expected " +
                           std::to_string(Doc.Version) + ")");
  return true;
}

bool codec::readSection(Reader &In, std::string_view What,
                        std::string_view &Payload, std::string *Error) {
  uint64_t Len = 0;
  uint32_t Stored = 0;
  std::string_view Crc;
  if (!In.varint(Len) || !In.view(Len, Payload) || !In.view(4, Crc))
    return fail(Error, "truncated " + std::string(What) + " record");
  for (int Byte = 0; Byte != 4; ++Byte)
    Stored |= static_cast<uint32_t>(static_cast<uint8_t>(Crc[Byte]))
              << (8 * Byte);
  if (Stored != crc32(Payload))
    return fail(Error, std::string(What) + " crc mismatch");
  return true;
}

bool codec::installFile(const std::string &Path, std::string_view Bytes,
                        std::string_view Noun, std::string *Error) {
  std::string Kind(Noun);
#ifdef CSWITCH_CODEC_POSIX
  // Write a temporary sibling, flush it to disk, then atomically rename
  // it over the destination: readers observe either the complete old
  // document or the complete new one. mkostemp makes the sibling unique,
  // so concurrent installers of one path never truncate each other's
  // temporary; the last rename wins.
  std::string TmpPath = Path + ".tmp.XXXXXX";
  int Fd = ::mkostemp(TmpPath.data(), O_CLOEXEC);
  if (Fd < 0)
    return fail(Error, "cannot create " + Kind + " temp file");
  // mkostemp creates 0600; installed documents are world-readable.
  (void)::fchmod(Fd, 0644);
  size_t Off = 0;
  while (Off != Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      ::unlink(TmpPath.c_str());
      return fail(Error, "short write to " + Kind + " temp file");
    }
    Off += static_cast<size_t>(N);
  }
  bool Flushed = ::fsync(Fd) == 0;
  bool Closed = ::close(Fd) == 0;
  if (!Flushed || !Closed ||
      std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    ::unlink(TmpPath.c_str());
    return fail(Error, "cannot replace " + Kind + " file");
  }
  return true;
#else
  std::string TmpPath = Path + ".tmp";
  {
    std::ofstream OS(TmpPath, std::ios::binary | std::ios::trunc);
    if (!OS)
      return fail(Error, "cannot create " + Kind + " temp file");
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!OS) {
      std::remove(TmpPath.c_str());
      return fail(Error, "short write to " + Kind + " temp file");
    }
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return fail(Error, "cannot replace " + Kind + " file");
  }
  return true;
#endif
}

bool codec::readAll(std::istream &IS, std::string &Out) {
  std::ostringstream Buffer;
  Buffer << IS.rdbuf();
  Out = std::move(Buffer).str();
  return !IS.bad();
}

bool codec::readFile(const std::string &Path, std::string &Out,
                     std::string_view Noun, std::string *Error) {
  std::string Kind(Noun);
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return fail(Error, "cannot open " + Kind + " file");
  // Size the string from the file's length and fill it with one read
  // request, which the file buffer passes on to the system whole,
  // repeating short reads. Whatever lies past that length, all of a
  // pipe that reports none or a file that grew meanwhile, is appended
  // by readAll.
  Out.clear();
  if (IS.seekg(0, std::ios::end)) {
    std::streamoff Size = IS.tellg();
    IS.seekg(0);
    Out.resize(static_cast<size_t>(std::max<std::streamoff>(Size, 0)));
    IS.read(Out.data(), static_cast<std::streamsize>(Out.size()));
    Out.resize(static_cast<size_t>(IS.gcount()));
  }
  std::string Rest;
  if (IS.bad() || !readAll(IS, Rest))
    return fail(Error, "I/O error reading " + Kind + " file");
  Out += Rest;
  return true;
}

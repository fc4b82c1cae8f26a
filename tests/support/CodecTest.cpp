//===- CodecTest.cpp - Shared binary-format primitive tests ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The wire primitives every binary document is built on: varint and
// zigzag boundaries, the CRC32 check vectors, CRC-framed sections, the
// header check, and crash-safe installs that stay correct when several
// writers race on one path.
//
//===----------------------------------------------------------------------===//

#include "support/Codec.h"

#include "store/StoreFormat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace cswitch;

namespace {

uint64_t roundTripVarint(uint64_t Value, size_t &Size) {
  std::string Bytes;
  codec::putVarint(Bytes, Value);
  Size = Bytes.size();
  codec::Reader In(Bytes);
  uint64_t Out = ~Value;
  EXPECT_TRUE(In.varint(Out));
  EXPECT_TRUE(In.atEnd());
  return Out;
}

TEST(Codec, VarintBoundariesRoundTrip) {
  struct Case {
    uint64_t Value;
    size_t Size;
  };
  for (Case C : {Case{0, 1}, Case{127, 1}, Case{128, 2},
                 Case{uint64_t{1} << 63, 10},
                 Case{std::numeric_limits<uint64_t>::max(), 10}}) {
    size_t Size = 0;
    EXPECT_EQ(roundTripVarint(C.Value, Size), C.Value);
    EXPECT_EQ(Size, C.Size) << C.Value;
  }
}

TEST(Codec, OverlongVarintIsRejected) {
  // Ten continuation bytes and a terminator: 11 bytes, one more than a
  // 64-bit value ever needs.
  std::string Bytes(10, static_cast<char>(0x80));
  Bytes += '\0';
  codec::Reader In(Bytes);
  uint64_t Out = 0;
  EXPECT_FALSE(In.varint(Out));

  // A truncated varint (continuation bit on the last byte) is rejected
  // too.
  codec::Reader Short(std::string_view("\x80\x80", 2));
  EXPECT_FALSE(Short.varint(Out));
}

TEST(Codec, StringIsLengthPrefixedAndBounded) {
  std::string Bytes;
  codec::putString(Bytes, "abc");
  EXPECT_EQ(Bytes, std::string("\x03" "abc"));
  std::string Out;
  codec::Reader In(Bytes);
  EXPECT_TRUE(In.string(Out));
  EXPECT_EQ(Out, "abc");
  codec::Reader Capped(Bytes);
  EXPECT_FALSE(Capped.string(Out, 2)); // Longer than the caller allows.
  codec::Reader Short(std::string_view(Bytes).substr(0, 3));
  EXPECT_FALSE(Short.string(Out)); // Declares more bytes than remain.
}

TEST(Codec, ZigzagCoversTheSignedRange) {
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(codec::zigzag(0), 0u);
  EXPECT_EQ(codec::zigzag(-1), 1u);
  EXPECT_EQ(codec::zigzag(1), 2u);
  EXPECT_EQ(codec::zigzag(Max), std::numeric_limits<uint64_t>::max() - 1);
  EXPECT_EQ(codec::zigzag(Min), std::numeric_limits<uint64_t>::max());
  for (int64_t V : {Min, Min + 1, int64_t{-1}, int64_t{0}, int64_t{1},
                    Max - 1, Max})
    EXPECT_EQ(codec::unzigzag(codec::zigzag(V)), V) << V;
}

TEST(Codec, Crc32MatchesKnownVectors) {
  EXPECT_EQ(codec::crc32(""), 0u);
  EXPECT_EQ(codec::crc32("123456789"), 0xCBF43926u); // The IEEE check value.
}

TEST(Codec, SectionRoundTripsAndRejectsAFlippedCrcBit) {
  std::string Bytes;
  codec::putSection(Bytes, "payload");
  codec::putSection(Bytes, "");
  codec::Reader In(Bytes);
  std::string_view First, Second;
  std::string Error;
  ASSERT_TRUE(codec::readSection(In, "row", First, &Error)) << Error;
  ASSERT_TRUE(codec::readSection(In, "row", Second, &Error)) << Error;
  EXPECT_EQ(First, "payload");
  EXPECT_EQ(Second, "");
  EXPECT_TRUE(In.atEnd());

  // Flip one bit of the first section's CRC (the 4 bytes after the
  // length byte and the 7 payload bytes).
  std::string Corrupt = Bytes;
  Corrupt[1 + 7] ^= 0x10;
  codec::Reader Bad(Corrupt);
  EXPECT_FALSE(codec::readSection(Bad, "row", First, &Error));
  EXPECT_EQ(Error, "row crc mismatch");

  // A section cut inside its CRC is truncated, not mismatched.
  codec::Reader Cut(std::string_view(Bytes).substr(0, 1 + 7 + 3));
  EXPECT_FALSE(codec::readSection(Cut, "row", First, &Error));
  EXPECT_EQ(Error, "truncated row record");
}

TEST(Codec, HeaderChecksMagicAndVersion) {
  constexpr codec::Format Doc{"magic-v3", "magic", 3};
  std::string Bytes;
  codec::putHeader(Bytes, Doc);
  EXPECT_EQ(Bytes, std::string("magic-v3\x03"));

  std::string Error;
  codec::Reader Good(Bytes);
  EXPECT_TRUE(codec::readHeader(Good, Doc, &Error)) << Error;
  EXPECT_TRUE(Good.atEnd());

  codec::Reader WrongMagic(std::string_view("magic-v4\x03"));
  EXPECT_FALSE(codec::readHeader(WrongMagic, Doc, &Error));
  EXPECT_EQ(Error, "not a magic document (bad magic)");

  codec::Reader NoVersion(std::string_view("magic-v3"));
  EXPECT_FALSE(codec::readHeader(NoVersion, Doc, &Error));
  EXPECT_EQ(Error, "truncated version");

  codec::Reader Future(std::string_view("magic-v3\x04"));
  EXPECT_FALSE(codec::readHeader(Future, Doc, &Error));
  EXPECT_EQ(Error, "unsupported magic version 4 (expected 3)");
}

TEST(Codec, InstallFileReplacesAndLeavesNoTemporaries) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(::testing::TempDir()) / "cswitch_codec_install";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::string Path = (Dir / "doc.bin").string();

  std::string Error;
  ASSERT_TRUE(codec::installFile(Path, "first", "test", &Error)) << Error;
  ASSERT_TRUE(codec::installFile(Path, "second", "test", &Error)) << Error;
  std::string Bytes;
  ASSERT_TRUE(codec::readFile(Path, Bytes, "test", &Error)) << Error;
  EXPECT_EQ(Bytes, "second");
  size_t Entries = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    (void)E;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u) << "temporary sibling left behind";

  EXPECT_FALSE(codec::installFile((Dir / "missing" / "doc.bin").string(),
                                  "x", "test", &Error));
  EXPECT_EQ(Error, "cannot create test temp file");
  EXPECT_FALSE(codec::readFile((Dir / "absent").string(), Bytes, "test",
                               &Error));
  EXPECT_EQ(Error, "cannot open test file");
  fs::remove_all(Dir);
}

// readFile returns every byte of a regular file, whatever its bytes
// (NUL, CR, 0xff) and whatever its length, the empty file included.
TEST(Codec, ReadFileReturnsTheWholeFile) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(::testing::TempDir()) / "cswitch_codec_read";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::string Path = (Dir / "doc.bin").string();
  for (size_t Size : {size_t(0), size_t(1), size_t(8191), size_t(8192),
                      size_t(1) << 20}) {
    std::string Bytes(Size, '\0');
    for (size_t I = 0; I != Size; ++I)
      Bytes[I] = static_cast<char>((I * 131 + I / 7) & 0xff);
    std::string Error;
    ASSERT_TRUE(codec::installFile(Path, Bytes, "test", &Error)) << Error;
    std::string Read = "stale";
    ASSERT_TRUE(codec::readFile(Path, Read, "test", &Error)) << Error;
    EXPECT_EQ(Read, Bytes) << Size << " bytes";
  }
  fs::remove_all(Dir);
}

#if defined(__unix__) || defined(__APPLE__)
// A pipe reports no length and its reads come back short, one writer's
// chunk at a time; readFile still reads it to its end.
TEST(Codec, ReadFileReadsAPipeToItsEnd) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(::testing::TempDir()) / "cswitch_codec_fifo";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::string Path = (Dir / "pipe").string();
  ASSERT_EQ(::mkfifo(Path.c_str(), 0600), 0);

  std::string Bytes;
  for (size_t I = 0; I != 300000; ++I)
    Bytes += static_cast<char>((I * 31) & 0xff);
  std::thread Writer([&] {
    FILE *F = std::fopen(Path.c_str(), "wb");
    if (!F)
      return;
    for (size_t At = 0, Chunk = 1; At < Bytes.size(); At += Chunk, Chunk *= 3) {
      std::fwrite(Bytes.data() + At, 1, std::min(Chunk, Bytes.size() - At),
                  F);
      std::fflush(F);
    }
    std::fclose(F);
  });
  std::string Read, Error;
  bool Ok = codec::readFile(Path, Read, "test", &Error);
  Writer.join();
  ASSERT_TRUE(Ok) << Error;
  EXPECT_EQ(Read, Bytes);
  fs::remove_all(Dir);
}
#endif

// Two writers installing different documents on one path must both
// succeed, and a reader must always find one complete document: each
// installer writes its own unique temporary sibling.
TEST(Codec, ConcurrentInstallsNeverFail) {
  std::string Path = ::testing::TempDir() + "/cswitch_codec_race.store";
  std::vector<StoreSite> DocA(1), DocB(2);
  DocA[0].Name = "a";
  DocB[0].Name = "b0";
  DocB[1].Name = "b1";

  for (int Round = 0; Round != 200; ++Round) {
    bool OkA = false, OkB = false;
    std::string ErrA, ErrB;
    std::thread WriterA([&] { OkA = writeStoreToFile(Path, DocA, &ErrA); });
    std::thread WriterB([&] { OkB = writeStoreToFile(Path, DocB, &ErrB); });
    WriterA.join();
    WriterB.join();
    ASSERT_TRUE(OkA) << "round " << Round << ": " << ErrA;
    ASSERT_TRUE(OkB) << "round " << Round << ": " << ErrB;

    std::vector<StoreSite> Read;
    std::string Error;
    ASSERT_TRUE(readStoreFromFile(Path, Read, &Error))
        << "round " << Round << ": " << Error;
    EXPECT_TRUE(Read == DocA || Read == DocB) << "round " << Round;
  }
  std::remove(Path.c_str());
}

} // namespace
